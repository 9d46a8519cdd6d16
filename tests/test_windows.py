"""Window assignment, entropy, feature extraction, and dataset plumbing."""

import math
from datetime import datetime, timedelta

import numpy as np
import pytest

from botsift.flows import FlowRecord, FlowTable, ParseStats
from botsift.windows import (FEATURE_NAMES, Dataset, WindowConfig,
                             WindowGroup, build_dataset,
                             extract_features, label_group, load_features,
                             normalized_entropy, resolve_origin,
                             window_span_indices, write_features)

T0 = datetime(2011, 8, 10, 9, 0, 0)


def flow(offset=0.0, src="10.0.0.1", dst="10.0.0.2", sport="1024",
         dport="80", dur=1.0, tot_bytes=100, src_bytes=40,
         label="flow=Background"):
    return FlowRecord(
        start_time=T0 + timedelta(seconds=offset), dur=dur, proto="tcp",
        src_addr=src, sport=sport, dir="<->", dst_addr=dst, dport=dport,
        state="CON", s_tos=0, d_tos=0, tot_pkts=max(1, tot_bytes // 60),
        tot_bytes=tot_bytes, src_bytes=src_bytes, label=label)


def table(records):
    return FlowTable(records=records, source_path="mem",
                     parse_stats=ParseStats(accepted=len(records)))


DEFAULTS = WindowConfig()


def test_span_examples():
    assert window_span_indices(150.0, DEFAULTS) == [1, 2]
    assert window_span_indices(0.0, DEFAULTS) == [0]
    assert window_span_indices(59.9, DEFAULTS) == [0]
    assert window_span_indices(60.0, DEFAULTS) == [0, 1]


def test_span_matches_interval_definition():
    rng = np.random.default_rng(7)
    cfgs = [DEFAULTS, WindowConfig(width=90.0, stride=45.0),
            WindowConfig(width=100.0, stride=30.0)]
    for cfg in cfgs:
        per_flow = math.ceil(cfg.width / cfg.stride)
        for t in rng.uniform(0, 5000, 2000):
            spans = window_span_indices(float(t), cfg)
            assert 1 <= len(spans) <= per_flow
            hi = int(t // cfg.stride) + 2
            expected = [k for k in range(hi + 1)
                        if k * cfg.stride <= t < k * cfg.stride + cfg.width]
            assert spans == expected


def test_window_config_validation():
    with pytest.raises(ValueError):
        WindowConfig(width=60.0, stride=120.0)
    with pytest.raises(ValueError):
        WindowConfig(stride=0.0)


def test_resolve_origin_earliest_start():
    t = table([flow(offset=30.0), flow(offset=5.0), flow(offset=90.0)])
    assert resolve_origin(t, DEFAULTS) == T0 + timedelta(seconds=5)
    pinned = WindowConfig(origin=T0)
    assert resolve_origin(t, pinned) == T0


def test_assign_windows_membership():
    t = table([flow(offset=0.0), flow(offset=150.0)])
    ds = build_dataset(t, DEFAULTS)
    assert ds.meta["row_keys"] == [(0, "10.0.0.1"), (1, "10.0.0.1"),
                                   (2, "10.0.0.1")]
    counts = ds.rows[:, FEATURE_NAMES.index("counts")]
    np.testing.assert_array_equal(counts, [1.0, 1.0, 1.0])


def test_entropy_pinned_examples():
    assert normalized_entropy([1, 1]) == 1.0
    assert normalized_entropy([4]) == 0.0
    # direct-evaluation oracle for {2,1,1}: H/ln(3)
    assert abs(normalized_entropy([2, 1, 1]) - 0.946394630357186) < 1e-12


def test_entropy_properties_random_multisets():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        m = int(rng.integers(1, 8))
        counts = rng.integers(1, 50, size=m).tolist()
        ru = normalized_entropy(counts)
        assert 0.0 <= ru <= 1.0 + 1e-12
        if m == 1:
            assert ru == 0.0
        elif len(set(counts)) == 1:
            assert abs(ru - 1.0) < 1e-12
        # independent direct evaluation
        total = sum(counts)
        h = -sum((c / total) * math.log(c / total) for c in counts)
        expected = 0.0 if m == 1 else h / math.log(m)
        assert abs(ru - expected) < 1e-12


def test_entropy_errors():
    with pytest.raises(ValueError):
        normalized_entropy([])
    with pytest.raises(ValueError):
        normalized_entropy([2, 0])


def test_extract_features_singleton():
    group = WindowGroup(0, "10.0.0.1",
                        [flow(dur=2.0, tot_bytes=100, src_bytes=40)])
    row = extract_features(group)
    f = dict(zip(FEATURE_NAMES, row.features))
    assert f["counts"] == 1
    assert f["Sport_nunique"] == f["DstAddr_nunique"] == f["Dport_nunique"] == 1
    assert [f["Dur_sum"], f["Dur_mean"], f["Dur_std"], f["Dur_max"],
            f["Dur_median"]] == [2, 2, 0, 2, 2]
    assert [f["TotBytes_sum"], f["TotBytes_mean"], f["TotBytes_std"],
            f["TotBytes_max"], f["TotBytes_median"]] == [100, 100, 0, 100, 100]
    assert [f["SrcBytes_sum"], f["SrcBytes_mean"], f["SrcBytes_std"],
            f["SrcBytes_max"], f["SrcBytes_median"]] == [40, 40, 0, 40, 40]
    assert f["Sport_RU"] == f["DstAddr_RU"] == f["Dport_RU"] == 0.0


def test_extract_features_two_flows_hand_computed():
    group = WindowGroup(0, "10.0.0.1", [
        flow(dport="53", dur=1.0), flow(dport="80", dur=3.0)])
    row = extract_features(group)
    f = dict(zip(FEATURE_NAMES, row.features))
    assert f["Dport_nunique"] == 2
    assert f["Dport_RU"] == 1.0
    # population std of {1, 3} is 1
    assert [f["Dur_sum"], f["Dur_mean"], f["Dur_std"], f["Dur_max"],
            f["Dur_median"]] == [4, 2, 1, 3, 2]
    assert len(row.features) == 22


def test_extract_features_absent_is_a_category():
    group = WindowGroup(0, "10.0.0.1", [
        flow(sport=None), flow(sport="1024")])
    f = dict(zip(FEATURE_NAMES, extract_features(group).features))
    assert f["Sport_nunique"] == 2
    assert f["Sport_RU"] == 1.0


def test_extract_features_permutation_invariant():
    members = [flow(offset=i, dur=float(i), dport=str(i % 3),
                    tot_bytes=100 + i) for i in range(9)]
    a = extract_features(WindowGroup(0, "s", members)).features
    b = extract_features(WindowGroup(0, "s", members[::-1])).features
    np.testing.assert_array_equal(a, b)


def test_extract_features_duration_scale_property():
    members = [flow(dur=d, dport=str(i)) for i, d in
               enumerate([0.5, 2.0, 7.25, 1.0])]
    base = extract_features(WindowGroup(0, "s", members)).features
    scaled_members = [flow(dur=d * 3.0, dport=str(i)) for i, d in
                      enumerate([0.5, 2.0, 7.25, 1.0])]
    scaled = extract_features(WindowGroup(0, "s", scaled_members)).features
    dur_idx = [FEATURE_NAMES.index(n) for n in
               ("Dur_sum", "Dur_mean", "Dur_std", "Dur_max", "Dur_median")]
    for i in range(22):
        if i in dur_idx:
            assert math.isclose(scaled[i], base[i] * 3.0, rel_tol=1e-12)
        else:
            assert scaled[i] == base[i]


def test_label_group_rules():
    botnet = flow(label="flow=From-Botnet-V42-UDP-DNS")
    background = flow(label="flow=Background-UDP")
    normal = flow(label="flow=Normal-V42")
    assert label_group(WindowGroup(0, "s", [background, botnet])) == 1
    assert label_group(WindowGroup(0, "s", [normal, background])) == 0
    assert label_group(WindowGroup(0, "s", [flow(label="")])) == 0
    # marker is case sensitive
    assert label_group(WindowGroup(0, "s", [flow(label="flow=botnet")])) == 0


def test_build_dataset_rows_and_order():
    records = [
        flow(offset=0.0, src="10.0.0.2"),
        flow(offset=30.0, src="10.0.0.1"),
        flow(offset=90.0, src="10.0.0.1",
             label="flow=From-Botnet-V42"),
    ]
    ds = build_dataset(table(records), DEFAULTS)
    keys = ds.meta["row_keys"]
    # offset 0 and 30 fall in window 0; 90 in windows 0 and 1
    assert keys == [(0, "10.0.0.1"), (0, "10.0.0.2"), (1, "10.0.0.1")]
    assert ds.labels.tolist() == [1, 0, 1]
    assert ds.feature_names == list(FEATURE_NAMES)
    counts = ds.rows[:, FEATURE_NAMES.index("counts")]
    assert counts.tolist() == [2.0, 1.0, 1.0]


def test_build_dataset_coverage_bound():
    rng = np.random.default_rng(3)
    records = [flow(offset=float(t), src=f"10.0.0.{int(s)}")
               for t, s in zip(rng.uniform(0, 3600, 500),
                               rng.integers(1, 5, 500))]
    ds = build_dataset(table(records), DEFAULTS)
    total_members = ds.rows[:, 0].sum()
    assert len(records) <= total_members <= 2 * len(records)
    assert ds.n < len(records)


def test_build_dataset_disjoint_hour_apart():
    records = [flow(offset=0.0), flow(offset=3600.0)]
    ds = build_dataset(table(records), DEFAULTS)
    # no window holds both flows
    assert all(ds.rows[:, 0] == 1.0)
    assert ds.n == 3  # offset 0 -> window 0; offset 3600 -> windows 59, 60


def test_build_dataset_empty_table_errors():
    with pytest.raises(ValueError):
        build_dataset(table([]), DEFAULTS)


def test_dataset_validation_and_subset():
    ds = Dataset(np.zeros((3, 22)), np.array([0, 1, 0]),
                 list(FEATURE_NAMES), {"row_keys": [(0, "a"), (0, "b"),
                                                    (1, "a")]})
    sub = ds.subset([2, 0])
    assert sub.n == 2
    assert sub.labels.tolist() == [0, 0]
    assert sub.meta["row_keys"] == [(1, "a"), (0, "a")]
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 21)), np.array([0, 1, 0]), list(FEATURE_NAMES))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 22)), np.array([0, 1, 0]), list(FEATURE_NAMES))


def test_dataset_select_features():
    rows = np.arange(6.0).reshape(2, 3)
    ds = Dataset(rows, np.array([0, 1]), ["a", "b", "c"])
    sel = ds.select_features(["c", "a"])
    assert sel.feature_names == ["c", "a"]
    np.testing.assert_array_equal(sel.rows, rows[:, [2, 0]])


def test_feature_csv_round_trip(tmp_path):
    records = [flow(offset=float(i * 40), src=f"10.0.0.{1 + i % 3}",
                    dur=0.1 * i, dport=str(i % 4),
                    label="flow=From-Botnet-V42" if i % 5 == 0 else "flow=bg")
               for i in range(30)]
    ds = build_dataset(table(records), DEFAULTS, scenario="synth-a")
    path = tmp_path / "features.csv"
    write_features(ds, path)

    first = path.read_text().splitlines()[0]
    assert first == "# scenario=synth-a"

    loaded = load_features(path)
    assert loaded.meta["scenario"] == "synth-a"
    assert loaded.feature_names == list(FEATURE_NAMES)
    assert loaded.labels.tolist() == ds.labels.tolist()
    assert np.max(np.abs(loaded.rows - ds.rows)) < 1e-9
    assert loaded.meta["row_keys"] == [(k, s) for k, s in ds.meta["row_keys"]]


def test_feature_csv_without_scenario_comment(tmp_path):
    ds = build_dataset(table([flow()]), DEFAULTS)
    ds.meta["scenario"] = None
    path = tmp_path / "plain.csv"
    write_features(ds, path)
    assert path.read_text().startswith("window_index,")
    loaded = load_features(path)
    assert loaded.meta["scenario"] is None
    assert loaded.n == 1


def test_load_features_rejects_non_finite_values(tmp_path):
    ds = build_dataset(table([flow(), flow(offset=200.0)]), DEFAULTS,
                       scenario="s")
    path = tmp_path / "features.csv"
    write_features(ds, path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",inf"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"line 4: non-finite"):
        load_features(path)


def test_load_features_rejects_ragged_rows(tmp_path):
    ds = build_dataset(table([flow(), flow(offset=200.0)]), DEFAULTS)
    ds.meta["scenario"] = None
    path = tmp_path / "features.csv"
    write_features(ds, path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"line 3: 24 cells"):
        load_features(path)
