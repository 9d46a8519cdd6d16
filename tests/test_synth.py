"""Tests for the synthetic scenario generator."""

import hashlib
import json

import numpy as np
import pytest

import flow_oracle
from botsift.flows import load_scenario, write_flow_csv
from botsift.synth import (BASE_TIME, SynthConfig, generate_scenario,
                           load_synth_config)
from botsift.windows import FEATURE_NAMES, WindowConfig, build_dataset

SMALL = dict(n_background_flows=2000, n_background_sources=20,
             n_botnet_sources=2, botnet_flow_rate=2.0, duration=1200.0)


class TestConfig:
    @pytest.mark.parametrize("overrides", [
        {"n_background_flows": 0},
        {"n_background_sources": 0},
        {"n_botnet_sources": -1},
        {"botnet_flow_rate": 0.0},
        {"botnet_flow_rate": -1.0},
        {"duration": 119.0},
        {"botnet_behavior": "ddos"},
        {"burst_size": 0},
        {"noise": -0.1},
        {"noise": 1.1},
    ])
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError):
            SynthConfig(**{**SMALL, **overrides})

    def test_defaults_are_valid(self):
        cfg = SynthConfig()
        assert cfg.botnet_behavior == "port-scan"
        assert cfg.seed == 42

    def test_load_round_trip(self, tmp_path):
        cfg = SynthConfig(**SMALL, botnet_behavior="beacon", seed=9)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "n_background_flows": 2000, "n_background_sources": 20,
            "n_botnet_sources": 2, "botnet_flow_rate": 2.0,
            "duration": 1200.0, "botnet_behavior": "beacon", "seed": 9}))
        assert load_synth_config(path) == cfg

    def test_load_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 3, "bot_rate": 1.0}))
        with pytest.raises(ValueError, match="unknown config keys: bot_rate"):
            load_synth_config(path)


class TestGenerate:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = SynthConfig(**SMALL, seed=5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_flow_csv(generate_scenario(cfg), a)
        write_flow_csv(generate_scenario(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_flow_csv(generate_scenario(SynthConfig(**SMALL, seed=1)), a)
        write_flow_csv(generate_scenario(SynthConfig(**SMALL, seed=2)), b)
        assert a.read_bytes() != b.read_bytes()

    def test_botnet_flow_count_near_expected(self):
        cfg = SynthConfig(n_background_flows=5000, n_background_sources=50,
                          n_botnet_sources=3, botnet_flow_rate=2.0,
                          duration=3600.0, seed=7)
        table = generate_scenario(cfg)
        botnet = sum("Botnet" in r.label for r in flow_oracle.records(table))
        expected = 3 * round(2.0 * 3600.0 / 60.0)
        assert abs(botnet - expected) <= 0.2 * expected
        assert len(table) == 5000 + botnet

    def test_noise_keeps_botnet_label(self):
        cfg = SynthConfig(**SMALL, noise=0.5, seed=11)
        table = generate_scenario(cfg)
        botnet = [r for r in flow_oracle.records(table)
                  if "Botnet" in r.label]
        probes = [r for r in botnet if r.state == "S_RA" and r.tot_pkts == 1]
        # noise flows mimic background but stay labeled as botnet traffic
        assert 0 < len(probes) < len(botnet)
        noise = [r for r in botnet if r not in probes]
        assert all("Botnet" in r.label for r in noise)

    def test_zero_botnet_sources(self):
        cfg = SynthConfig(**{**SMALL, "n_botnet_sources": 0}, seed=3)
        table = generate_scenario(cfg)
        assert len(table) == SMALL["n_background_flows"]
        assert not any("Botnet" in r.label
                       for r in flow_oracle.records(table))

    def test_records_sorted_and_in_range(self):
        cfg = SynthConfig(**SMALL, seed=13)
        table = generate_scenario(cfg)
        times = [r.start_time for r in flow_oracle.records(table)]
        assert times == sorted(times)
        span = (times[-1] - BASE_TIME).total_seconds()
        assert times[0] >= BASE_TIME
        assert span <= SMALL["duration"]

    def test_portscan_probe_shape(self):
        cfg = SynthConfig(**SMALL, seed=17)
        probes = [r for r in flow_oracle.records(generate_scenario(cfg))
                  if "Botnet" in r.label]
        assert probes
        for r in probes:
            assert r.proto == "tcp"
            assert r.state == "S_RA"
            assert r.tot_pkts == 1
            assert 40 <= r.tot_bytes <= 60
            assert r.src_bytes == r.tot_bytes

    def test_beacon_shape(self):
        cfg = SynthConfig(**SMALL, botnet_behavior="beacon", seed=19)
        beacons = [r for r in flow_oracle.records(generate_scenario(cfg))
                   if "Botnet" in r.label]
        assert beacons
        for r in beacons:
            assert r.dport == "6667"
            assert r.state == "SPA_SPA"
            assert 280 <= r.tot_bytes <= 330

    def test_round_trip_through_csv(self, tmp_path):
        cfg = SynthConfig(**SMALL, seed=23)
        table = generate_scenario(cfg)
        path = tmp_path / "synth.csv"
        write_flow_csv(table, path)
        loaded = load_scenario(path)
        assert loaded.parse_stats.rejected == 0
        assert loaded.parse_stats.accepted == len(table)
        flow_oracle.assert_same_columns(loaded, table)

    @pytest.mark.parametrize("behavior,noise,digest", [
        ("port-scan", 0.0,
         "41e2bc25db3d1a0b4fbb356bd08e4b25a2ba0622bbee562f177891c7a8983f7d"),
        ("beacon", 0.3,
         "b06a771c72a2106ec0bb47bcd47c7641d6c63c1b423e502959b494a33eaee056"),
        ("beacon", 0.85,
         "b9df0c186b00c9149869f1d41b8e04cebb31b55a986314b01089b338ac2b0999"),
    ])
    def test_capture_bytes_are_pinned(self, tmp_path, behavior, noise,
                                      digest):
        # the whole written capture, every draw in order: a change here
        # changes every synthetic corpus
        cfg = SynthConfig(**SMALL, botnet_behavior=behavior, noise=noise,
                          seed=7)
        path = tmp_path / "synth.csv"
        write_flow_csv(generate_scenario(cfg), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestSeparability:
    @pytest.mark.parametrize("seed", range(10))
    def test_portscan_windows_have_higher_dport_entropy(self, seed):
        cfg = SynthConfig(n_background_flows=4000, n_background_sources=10,
                          n_botnet_sources=2, botnet_flow_rate=3.0,
                          duration=1200.0, burst_size=5, seed=seed)
        ds = build_dataset(generate_scenario(cfg), WindowConfig())
        ru = ds.rows[:, FEATURE_NAMES.index("Dport_RU")]
        pos, neg = ru[ds.labels == 1], ru[ds.labels == 0]
        assert pos.size and neg.size
        assert pos.mean() > neg.mean()
