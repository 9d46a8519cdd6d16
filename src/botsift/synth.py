"""Deterministic synthetic NetFlow generator.

Produces captures in the same CSV schema the ingest stage consumes, so
the whole pipeline can be exercised at desk scale. Background traffic
uses heavy-tailed durations and byte counts over many sources; botnet
sources follow a behavior profile (port-scan bursts or fixed-port
beaconing), optionally diluted with background-looking flows that keep
the botnet label.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Annotated, Literal

import numpy as np

from .config import Count, Seed, build, check, read_json_object
from .flows import ABSENT, FlowTable, StringColumn, micros

BASE_TIME = datetime(2011, 8, 10, 9, 0, 0)
_BASE_US = micros(BASE_TIME)

COMMON_DPORTS = ("80", "443", "53", "25", "110", "143", "123", "22",
                 "8080", "3389")
DPORT_WEIGHTS = (0.30, 0.22, 0.18, 0.06, 0.04, 0.04, 0.05, 0.04,
                 0.04, 0.03)

TCP_STATES = ("FSPA_FSPA", "SPA_SPA", "FSA_FSA", "S_RA", "SR_A")
UDP_STATES = ("CON", "INT")


@dataclass
class SynthConfig:
    n_background_flows: Count = 50_000
    n_background_sources: Count = 150
    n_botnet_sources: Annotated[int, "[0, inf)"] = 5
    botnet_flow_rate: Annotated[float, "(0, inf)"] = 0.5  # flows/min/source
    duration: Annotated[float, "[120, inf)"] = 7200.0  # seconds of capture
    botnet_behavior: Literal["port-scan", "beacon"] = "port-scan"
    burst_size: Count = 5                 # flows per port-scan burst
    noise: Annotated[float, "[0, 1]"] = 0.0  # botnet flows like background
    seed: Seed = 42

    __post_init__ = check


def load_synth_config(path) -> SynthConfig:
    return build(SynthConfig, read_json_object(path))


# A flow is a tuple of its FlowTable values in field order: t_us, dur,
# tot_pkts, tot_bytes, src_bytes, proto, src_addr, sport, dir, dst_addr,
# dport, state, s_tos, d_tos, label.


def _t_us(offset: float) -> int:
    return _BASE_US + round(offset * 1e6)


def _background_numeric(rng: np.random.Generator):
    """(dur, tot_bytes, src_bytes, tot_pkts) with lognormal durations
    and Pareto-tailed byte counts."""
    dur = min(float(rng.lognormal(mean=-3.0, sigma=2.0)), 3600.0)
    tot_bytes = int(64 + rng.pareto(1.5) * 200.0)
    tot_bytes = min(tot_bytes, 10_000_000)
    src_bytes = int(tot_bytes * rng.uniform(0.2, 0.8))
    tot_pkts = max(1, tot_bytes // 700 + int(rng.integers(1, 4)))
    return dur, tot_bytes, src_bytes, tot_pkts


BACKGROUND_LABELS = {"tcp": "flow=Background-TCP-Established",
                     "udp": "flow=Background-UDP-Established",
                     "icmp": "flow=Background-ICMP-Echo"}


def _background_flow(rng: np.random.Generator, offset: float,
                     src_addr: str, dst_pool, label: str = None) -> tuple:
    """One background-shaped flow; label defaults to the per-protocol
    background tag but can be overridden (botnet noise traffic)."""
    proto_draw = rng.random()
    dur, tot_bytes, src_bytes, tot_pkts = _background_numeric(rng)
    if proto_draw < 0.05:
        proto, sport, dport = "icmp", ABSENT, ABSENT
        state = "ECO"
        direction = "->"
    else:
        proto = "tcp" if proto_draw < 0.65 else "udp"
        sport = str(int(rng.integers(1024, 65536)))
        dport = COMMON_DPORTS[int(rng.choice(len(COMMON_DPORTS),
                                             p=DPORT_WEIGHTS))]
        state = (TCP_STATES[int(rng.integers(0, len(TCP_STATES)))]
                 if proto == "tcp"
                 else UDP_STATES[int(rng.integers(0, len(UDP_STATES)))])
        direction = "<->"
    dst_addr = dst_pool[int(rng.integers(0, len(dst_pool)))]
    return (_t_us(offset), dur, tot_pkts, tot_bytes, src_bytes, proto,
            src_addr, sport, direction, dst_addr, dport, state, "0", "0",
            label if label is not None else BACKGROUND_LABELS[proto])


def _portscan_flows(rng: np.random.Generator, cfg: SynthConfig,
                    src_addr: str, target: str, n_scan: int) -> list:
    """Bursts of short probe flows, each burst hitting many distinct
    destination ports within one stride slot."""
    flows = []
    n_bursts = max(1, round(n_scan / cfg.burst_size))
    for _ in range(n_bursts):
        burst_start = float(rng.uniform(0.0, cfg.duration - 45.0))
        ports = rng.choice(np.arange(1, 10_000), size=cfg.burst_size,
                           replace=False)
        for j in range(cfg.burst_size):
            offset = burst_start + float(rng.uniform(0.0, 40.0))
            dur = float(rng.uniform(0.0004, 0.004))
            # bare SYN probes: tiny fixed-size single-packet flows
            tot_bytes = int(rng.integers(40, 61))
            sport = str(int(rng.integers(1024, 65536)))
            flows.append((
                _t_us(offset), dur, 1, tot_bytes, tot_bytes, "tcp",
                src_addr, sport, "->", target, str(int(ports[j])), "S_RA",
                "0", "0", "flow=From-Botnet-Synth-V1-TCP-PortScan"))
    return flows


def _beacon_flows(rng: np.random.Generator, cfg: SynthConfig,
                  src_addr: str, target: str, n_beacon: int) -> list:
    """Fixed-port check-ins at a regular period with small jitter and
    near-constant durations."""
    period = cfg.duration / max(1, n_beacon)
    phase = float(rng.uniform(0.0, period))
    flows = []
    for i in range(n_beacon):
        offset = min(phase + i * period + float(rng.uniform(-1.0, 1.0)),
                     cfg.duration - 1.0)
        offset = max(0.0, offset)
        dur = max(0.0, float(rng.normal(2.0, 0.05)))
        tot_bytes = int(rng.integers(280, 330))
        sport = str(int(rng.integers(1024, 65536)))
        flows.append((
            _t_us(offset), dur, 6, tot_bytes, tot_bytes // 2, "tcp",
            src_addr, sport, "<->", target, "6667", "SPA_SPA", "0", "0",
            "flow=From-Botnet-Synth-V1-TCP-CC-Beacon"))
    return flows


def generate_scenario(cfg: SynthConfig) -> FlowTable:
    """Deterministic synthetic capture; identical configs give
    byte-identical serialized output."""
    rng = np.random.default_rng(cfg.seed)

    dst_pool = [f"147.32.{84 + i // 250}.{i % 250 + 1}"
                for i in range(500)]
    background_sources = [f"10.0.{i // 250}.{i % 250 + 1}"
                          for i in range(cfg.n_background_sources)]
    # skewed activity so some sources dominate, as in real captures
    weights = 1.0 / np.arange(1, cfg.n_background_sources + 1) ** 0.7
    weights /= weights.sum()

    flows = []
    for _ in range(cfg.n_background_flows):
        offset = float(rng.uniform(0.0, cfg.duration))
        src = background_sources[int(rng.choice(cfg.n_background_sources,
                                                p=weights))]
        flows.append(_background_flow(rng, offset, src, dst_pool))

    behavior_flows = (_portscan_flows if cfg.botnet_behavior == "port-scan"
                      else _beacon_flows)
    total = max(1, round(cfg.botnet_flow_rate * cfg.duration / 60.0))
    n_noise = int(round(total * cfg.noise))
    for b in range(cfg.n_botnet_sources):
        src = f"10.10.10.{b + 1}"
        target = dst_pool[int(rng.integers(0, len(dst_pool)))]
        flows.extend(behavior_flows(rng, cfg, src, target, total - n_noise))
        for _ in range(n_noise):
            offset = float(rng.uniform(0.0, cfg.duration))
            flows.append(_background_flow(
                rng, offset, src, dst_pool,
                "flow=From-Botnet-Synth-V1-Background-Noise"))

    flows.sort(key=_order)
    columns = list(zip(*flows))
    return FlowTable(np.array(columns[0], np.int64),
                     *(np.array(c, np.float64) for c in columns[1:5]),
                     *map(StringColumn.of, columns[5:]))


def _order(flow: tuple) -> tuple:
    """Start time, source, destination, destination port, source port;
    an absent port sorts as ''."""
    (t_us, _, _, _, _, _, src_addr, sport, _, dst_addr, dport, *_) = flow
    return (t_us, src_addr, dst_addr, "" if dport == ABSENT else dport,
            "" if sport == ABSENT else sport)
