"""Window assignment, entropy, feature extraction, and dataset plumbing."""

import csv
import io
import json
import math
import random
from dataclasses import replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flow_oracle
import window_oracle
from flow_oracle import FlowRecord
from botsift.cli import main
from botsift.flows import ABSENT, CHUNK_ROWS, ParseStats
from botsift.windows import (FEATURE_NAMES, KEY, Dataset, WindowConfig,
                             _category_features, _normalized_entropies,
                             build_dataset, load_features,
                             normalized_entropy, window_spans,
                             write_features)

T0 = datetime(2011, 8, 10, 9, 0, 0)
DATA = Path(__file__).parent / "data"


def flow(offset=0.0, src="10.0.0.1", dst="10.0.0.2", sport="1024",
         dport="80", dur=1.0, tot_bytes=100, src_bytes=40,
         label="flow=Background"):
    return FlowRecord(
        start_time=T0 + timedelta(seconds=offset), dur=dur, proto="tcp",
        src_addr=src, sport=sport, dir="<->", dst_addr=dst, dport=dport,
        state="CON", s_tos=0, d_tos=0, tot_pkts=max(1, tot_bytes // 60),
        tot_bytes=tot_bytes, src_bytes=src_bytes, label=label)


def table(records):
    return flow_oracle.table(records, "mem",
                             ParseStats(accepted=len(records)))


DEFAULTS = WindowConfig()


def spans_per_flow(t, cfg) -> list:
    """window_spans' pairs as one ascending window list per flow."""
    flows, windows = window_spans(np.asarray(t, dtype=float), cfg)
    per_flow = [[] for _ in range(len(t))]
    for i, k in zip(flows.tolist(), windows.tolist()):
        per_flow[i].append(k)
    return [sorted(ks) for ks in per_flow]


def one_window_row(members) -> dict:
    """Features of a one-source table whose flows all fall in window 0."""
    ds = build_dataset(table(members), DEFAULTS)
    assert ds.keys.tolist() == [(0, members[0].src_addr)]
    return dict(zip(FEATURE_NAMES, ds.rows[0]))


def test_span_examples():
    assert spans_per_flow([150.0, 0.0, 59.9, 60.0], DEFAULTS) == [
        [1, 2], [0], [0], [0, 1]]


def test_span_matches_interval_definition():
    rng = np.random.default_rng(7)
    cfgs = [DEFAULTS, WindowConfig(width=90.0, stride=45.0),
            WindowConfig(width=100.0, stride=30.0)]
    for cfg in cfgs:
        per_flow = math.ceil(cfg.width / cfg.stride)
        offsets = rng.uniform(0, 5000, 2000)
        for t, spans in zip(offsets, spans_per_flow(offsets, cfg)):
            assert 1 <= len(spans) <= per_flow
            hi = int(t // cfg.stride) + 2
            expected = [k for k in range(hi + 1)
                        if k * cfg.stride <= t < k * cfg.stride + cfg.width]
            assert spans == expected


def test_span_drops_flows_before_the_origin():
    assert spans_per_flow([-0.5, -200.0, 0.0], DEFAULTS) == [[], [], [0]]
    flows, windows = window_spans(np.empty(0), DEFAULTS)
    assert flows.size == windows.size == 0


@settings(deadline=None, max_examples=200)
@given(st.lists(st.datetimes(), min_size=1, max_size=20))
def test_offsets_from_microseconds_equal_total_seconds(starts):
    # any datetimes, so differences run far past 2**53 microseconds
    starts_table = table([replace(flow(), start_time=s) for s in starts])
    assert starts_table.offsets().tolist() == [
        (s - min(starts)).total_seconds() for s in starts]


def test_window_config_validation():
    with pytest.raises(ValueError):
        WindowConfig(width=60.0, stride=120.0)
    with pytest.raises(ValueError):
        WindowConfig(stride=0.0)
    with pytest.raises(ValueError):
        WindowConfig(width=math.inf, stride=math.inf)


def test_windows_count_from_earliest_start():
    t = table([flow(offset=70.0), flow(offset=30.0), flow(offset=150.0)])
    assert t.offsets().tolist() == [40.0, 0.0, 120.0]
    ds = build_dataset(t, DEFAULTS)
    assert ds.keys["window"].tolist() == [0, 1, 2]
    assert ds.rows[:, 0].tolist() == [2.0, 1.0, 1.0]


def test_assign_windows_membership():
    t = table([flow(offset=0.0), flow(offset=150.0)])
    ds = build_dataset(t, DEFAULTS)
    assert ds.keys.tolist() == [(0, "10.0.0.1"), (1, "10.0.0.1"),
                                (2, "10.0.0.1")]
    counts = ds.rows[:, FEATURE_NAMES.index("counts")]
    np.testing.assert_array_equal(counts, [1.0, 1.0, 1.0])


def test_entropy_pinned_examples():
    assert normalized_entropy([1, 1]) == 1.0
    assert normalized_entropy([4]) == 0.0
    # direct-evaluation oracle for {2,1,1}: H/ln(3)
    assert abs(normalized_entropy([2, 1, 1]) - 0.946394630357186) < 1e-12
    # the bits of a left-to-right sum, which sum() of floats gives only
    # before Python 3.12
    assert normalized_entropy([1, 3, 5]).hex() == "0x1.b4a13790ada8fp-1"


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


def test_entropy_pin_holds_through_a_block_in_first_appearance_order():
    # codes in sorted order would give the counts [3, 5, 1], whose sum
    # ends in ...ada90
    nunique, entropy = _category_features(np.array(
        [[7, 2, 4, 2, 4, 4, 2, 4, 4], [3] * 9]))
    assert nunique.tolist() == [3, 1]
    assert entropy[0].hex() == "0x1.b4a13790ada8fp-1"
    assert entropy[1] == 0.0


COUNTS = st.integers(1, 2000)
COUNT_ROWS = st.one_of(
    st.lists(COUNTS, min_size=1, max_size=1),
    st.lists(COUNTS, min_size=2, max_size=64),
    st.tuples(COUNTS, st.integers(2, 64)).map(lambda cm: [cm[0]] * cm[1]))


@settings(deadline=None, max_examples=300)
@given(st.lists(COUNT_ROWS, min_size=1, max_size=12))
# rows whose entropy numpy's AVX-512 log would change in the last bit
@example([[1438, 145], [7], [1825, 1965], [1953, 452]])
def test_entropies_match_the_scalar_loop_bit_for_bit(rows):
    """Blocks mix single-category, uniform and many-category rows."""
    counts = np.zeros((len(rows), max(map(len, rows))), dtype=np.int64)
    for i, row in enumerate(rows):
        counts[i, :len(row)] = row
    expected = [window_oracle.normalized_entropy(row).hex() for row in rows]
    assert [v.hex() for v in _normalized_entropies(counts).tolist()] == (
        expected)
    assert [normalized_entropy(row).hex() for row in rows] == expected


def test_extract_features_singleton():
    f = one_window_row([flow(dur=2.0, tot_bytes=100, src_bytes=40)])
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
    f = one_window_row([flow(dport="53", dur=1.0),
                        flow(dport="80", dur=3.0)])
    assert f["Dport_nunique"] == 2
    assert f["Dport_RU"] == 1.0
    # population std of {1, 3} is 1
    assert [f["Dur_sum"], f["Dur_mean"], f["Dur_std"], f["Dur_max"],
            f["Dur_median"]] == [4, 2, 1, 3, 2]
    assert len(f) == 22


def test_extract_features_absent_is_a_category():
    f = one_window_row([flow(sport=None), flow(sport="1024")])
    assert f["Sport_nunique"] == 2
    assert f["Sport_RU"] == 1.0
    # an empty cell and a literal absent marker are the same category
    f = one_window_row([flow(sport=None), flow(sport=ABSENT)])
    assert f["Sport_nunique"] == 1
    assert f["Sport_RU"] == 0.0


def test_extract_features_permutation_invariant():
    members = [flow(offset=i, dur=float(i), dport=str(i % 3),
                    tot_bytes=100 + i) for i in range(9)]
    a = one_window_row(members)
    b = one_window_row(members[::-1])
    assert a == b


def test_extract_features_duration_scale_property():
    base = one_window_row([flow(dur=d, dport=str(i)) for i, d in
                           enumerate([0.5, 2.0, 7.25, 1.0])])
    scaled = one_window_row([flow(dur=d * 3.0, dport=str(i)) for i, d in
                             enumerate([0.5, 2.0, 7.25, 1.0])])
    dur_names = ("Dur_sum", "Dur_mean", "Dur_std", "Dur_max", "Dur_median")
    for name in FEATURE_NAMES:
        if name in dur_names:
            assert math.isclose(scaled[name], base[name] * 3.0,
                                rel_tol=1e-12)
        else:
            assert scaled[name] == base[name]


def test_label_group_rules():
    def label(*members):
        ds = build_dataset(table(list(members)), DEFAULTS)
        assert ds.n == 1
        return int(ds.labels[0])

    botnet = flow(label="flow=From-Botnet-V42-UDP-DNS")
    background = flow(label="flow=Background-UDP")
    normal = flow(label="flow=Normal-V42")
    assert label(background, botnet) == 1
    assert label(normal, background) == 0
    assert label(flow(label="")) == 0
    # marker is case sensitive
    assert label(flow(label="flow=botnet")) == 0


def test_build_dataset_rows_and_order():
    records = [
        flow(offset=0.0, src="10.0.0.2"),
        flow(offset=30.0, src="10.0.0.1"),
        flow(offset=90.0, src="10.0.0.1",
             label="flow=From-Botnet-V42"),
    ]
    ds = build_dataset(table(records), DEFAULTS)
    keys = ds.keys.tolist()
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


PORTS = (None, ABSENT, "53", "80", "443", "1024", "6667")
ADDRS = ("10.0.0.1", "10.0.0.2", "147.32.84.165", "192.168.1.9")
LABELS = ("flow=Background", "flow=Normal-V42", "flow=From-Botnet-V42",
          "flow=From-Botnet-V42-TCP-CC1", "")


@st.composite
def flow_tables(draw):
    """Random tables: up to a few hundred flows over few sources, so that
    group sizes span 1 to about 300; timestamps on a coarse grid, so that
    many coincide; optional ports empty or the literal absent marker."""
    n = draw(st.integers(1, 320))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_src = draw(st.integers(1, 4))
    grid = draw(st.sampled_from([0.5, 1.0, 0.001]))
    span = draw(st.sampled_from([2.0, 60.0, 400.0, 3000.0]))
    offsets = np.round(rng.uniform(0, span, n) / grid) * grid
    labels = LABELS if draw(st.booleans()) else LABELS[:2]
    records = []
    for i in range(n):
        tot = int(rng.choice([0, 60, 1500, int(rng.integers(0, 10**9))]))
        records.append(FlowRecord(
            start_time=T0 + timedelta(microseconds=round(offsets[i] * 1e6)),
            dur=float(rng.choice([0.0, 1.5, rng.exponential(20.0)])),
            proto="tcp", src_addr=ADDRS[int(rng.integers(n_src))],
            sport=PORTS[int(rng.integers(len(PORTS)))], dir="->",
            dst_addr=ADDRS[int(rng.integers(len(ADDRS)))],
            dport=PORTS[int(rng.integers(len(PORTS)))], state=None,
            s_tos=None, d_tos=None, tot_pkts=1, tot_bytes=tot,
            src_bytes=int(rng.integers(0, tot + 1)),
            label=labels[int(rng.integers(len(labels)))]))
    width = draw(st.floats(0.5, 300.0))
    ratio = draw(st.one_of(st.just(1.0), st.just(0.5), st.just(1 / 3),
                           st.floats(0.05, 1.0)))
    cfg = WindowConfig(width=width, stride=width * ratio)
    return table(records), cfg


@settings(deadline=None, max_examples=60)
@given(flow_tables())
def test_build_dataset_matches_per_group_oracle(case):
    t, cfg = case
    ds = build_dataset(t, cfg, scenario="s")
    expected = window_oracle.build_dataset(t, cfg, scenario="s")
    assert ds.rows.tobytes() == expected.rows.tobytes()
    assert ds.labels.tolist() == expected.labels.tolist()
    assert ds.scenario == expected.scenario
    assert ds.keys.tolist() == expected.keys.tolist()


# `botsift synth` settings of the capture behind the golden feature files
GOLDEN_SYNTH = {"n_background_flows": 2000, "n_background_sources": 20,
                "n_botnet_sources": 3, "botnet_flow_rate": 2.0,
                "duration": 1200.0, "botnet_behavior": "port-scan",
                "burst_size": 5, "noise": 0.1, "seed": 7}


@pytest.mark.parametrize("stride", ["60", "45"])
def test_extract_reproduces_golden_feature_files(tmp_path, stride):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(GOLDEN_SYNTH))
    flows_csv = tmp_path / "flows.csv"
    out = tmp_path / "features.csv"
    assert main(["synth", "--config", str(config), "-o",
                 str(flows_csv)]) == 0
    assert main(["extract", str(flows_csv), "--width", "120", "--stride",
                 stride, "--scenario", "golden", "-o", str(out)]) == 0
    golden = DATA / f"golden_features_w120_s{stride}.csv"
    assert out.read_bytes() == golden.read_bytes()


def test_dataset_validation_and_subset():
    ds = Dataset(np.zeros((3, 22)), np.array([0, 1, 0]),
                 list(FEATURE_NAMES),
                 keys=np.array([(0, "a"), (0, "b"), (1, "a")], KEY))
    sub = ds.subset([2, 0])
    assert sub.n == 2
    assert sub.labels.tolist() == [0, 0]
    assert sub.keys.tolist() == [(1, "a"), (0, "a")]
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 21)), np.array([0, 1, 0]), list(FEATURE_NAMES))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 22)), np.array([0, 1, 0]), list(FEATURE_NAMES))
    with pytest.raises(ValueError, match="equal length"):
        Dataset(np.zeros((2, 22)), np.array([0, 1]), list(FEATURE_NAMES),
                keys=np.array([(0, "a")], KEY))


def test_dataset_scenario_and_keys_are_keyword_only():
    with pytest.raises(TypeError):
        Dataset(np.zeros((1, 1)), [0], ["a"], "s")
    ds = Dataset(np.zeros((1, 1)), [0], ["a"], scenario="s",
                 keys=np.array([(3, "b")], KEY))
    assert ds.select_features(["a"]).scenario == "s"
    assert ds.subset([0, 0]).scenario == "s"


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
    assert loaded.scenario == "synth-a"
    assert loaded.feature_names == list(FEATURE_NAMES)
    assert loaded.labels.tolist() == ds.labels.tolist()
    assert np.max(np.abs(loaded.rows - ds.rows)) < 1e-9
    assert loaded.keys.tolist() == ds.keys.tolist()


def test_feature_csv_without_scenario_comment(tmp_path):
    ds = build_dataset(table([flow()]), DEFAULTS)
    ds.scenario = None
    path = tmp_path / "plain.csv"
    write_features(ds, path)
    assert path.read_text().startswith("window_index,")
    loaded = load_features(path)
    assert loaded.scenario is None
    assert loaded.n == 1


def test_load_features_reads_crlf_scenario_line(tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(b"# scenario=demo\r\n"
                     + b"window_index,src_addr,label,counts\r\n"
                     + b"0,10.0.0.1,1,3\r\n")
    loaded = load_features(path)
    assert loaded.scenario == "demo"
    write_features(loaded, tmp_path / "again.csv")
    assert load_features(tmp_path / "again.csv").scenario == "demo"


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
    ds.scenario = None
    path = tmp_path / "features.csv"
    write_features(ds, path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"line 3: 24 cells"):
        load_features(path)


@pytest.mark.parametrize("label", ["7", "-1", "2"])
def test_load_features_rejects_labels_outside_0_1(tmp_path, label):
    ds = build_dataset(table([flow(), flow(offset=200.0)]), DEFAULTS,
                       scenario="s")
    path = tmp_path / "features.csv"
    write_features(ds, path)
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[2] = label
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"line 4: label {label} "):
        load_features(path)


@pytest.mark.parametrize("window", ["9223372036854775808",
                                    "-9223372036854775809", "1.5"])
def test_load_features_rejects_window_indices_that_are_not_int64(tmp_path,
                                                                 window):
    ds = build_dataset(table([flow(), flow(offset=200.0)]), DEFAULTS,
                       scenario="s")
    path = tmp_path / "features.csv"
    write_features(ds, path)
    lines = path.read_text().splitlines()
    lines[3] = "9223372036854775807" + lines[3][lines[3].index(","):]
    path.write_text("\n".join(lines) + "\n")
    assert load_features(path).keys["window"][1] == 2**63 - 1
    lines[3] = window + lines[3][lines[3].index(","):]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"line 4: "):
        load_features(path)


@pytest.mark.parametrize("column, cell", [
    (0, "1_0"), (0, "\u0661"), (2, "\u0661"), (2, "0_1"), (3, "1_5"),
    (3, "\u0661.5"), (-1, "2_0.0")])
def test_load_features_rejects_cells_the_capture_reader_refuses(
        tmp_path, column, cell):
    # int() and float() read "_" separators and non-ASCII digits; a
    # capture refuses them, and so does a feature file
    ds = build_dataset(table([flow(), flow(offset=200.0)]), DEFAULTS,
                       scenario="s")
    path = tmp_path / "features.csv"
    write_features(ds, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[3].split(",")
    cells[column] = cell
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError,
                       match=rf"line 4: '{cell}' is not a number"):
        load_features(path)


def test_load_features_reads_cells_with_outer_unicode_spaces(tmp_path):
    # the rule strips a cell first, as float() does
    ds = build_dataset(table([flow(), flow(offset=200.0)]), DEFAULTS,
                       scenario="s")
    path = tmp_path / "features.csv"
    write_features(ds, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[3].split(",")
    cells[-1] = "\u00a0" + cells[-1] + "\u2003"
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert load_features(path).rows.tobytes() == ds.rows.tobytes()


HEADER = "window_index,src_addr,label,counts\n"


def test_load_features_names_the_line_of_a_cell_too_long(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("# scenario=s\n" + HEADER + "0,a,1,3\n"
                    + f"1,{'b' * (csv.field_size_limit() + 1)},0,4\n"
                    + "2,c,0,5\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"line 4: a cell longer than"):
        load_features(path)


@pytest.mark.parametrize("data, line", [
    (b"# scenario=s\xff\n" + HEADER.encode() + b"0,a,1,3\n", 1),
    (b"# scenario=s\n" + HEADER[:-1].encode() + b",\xff\n0,a,1,3,4\n", 2),
    (HEADER.encode() + b"0,a,1,3\n0,\xffb,1,3\n", 3),
    (HEADER.encode() + b"0,a,1,3\n\n0,\"b\n\xff\",1,3\n", 4),
    (HEADER.encode() + b"0,a,1,3\n0,b,1,3\xff\n", 3),
    (HEADER.encode() + b"0,a,1,3\n0,b,1\xff\n", 3)])
def test_load_features_names_the_line_of_bytes_that_are_not_utf8(
        tmp_path, data, line):
    # in a source, a number cell and a row of too few cells alike
    path = tmp_path / "features.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError,
                       match=rf"line {line}: bytes that are not UTF-8"):
        load_features(path)


@pytest.mark.parametrize("header", ["window_index,src_addr,label\n",
                                    "window_index,src_addr,label\r\n"])
def test_load_features_refuses_a_header_without_feature_columns(
        tmp_path, header):
    path = tmp_path / "features.csv"
    path.write_text("# scenario=s\n" + header + "0,a,1\n1,b,0\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match="not a feature CSV"):
        load_features(path)
    assert main(["select", str(path), "--method", "filter"]) == 1


def test_load_features_names_lines_past_a_chunk_boundary(tmp_path):
    # each row spans two lines and a blank line follows it: the first
    # CHUNK_ROWS of them fill two chunks of csv rows
    path = tmp_path / "features.csv"
    path.write_text(HEADER + '0,"a\nb",1,3\n\n' * CHUNK_ROWS
                    + "0,c,1,3\n0,d,1,x\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"line {3 * CHUNK_ROWS + 3}: "
                                         "'x' is not a number"):
        load_features(path)


def test_load_features_names_the_first_failing_line(tmp_path):
    # a non-finite feature is checked with every other check of its row
    path = tmp_path / "features.csv"
    path.write_text(HEADER + "0,a,1,3\n0,b,1,inf\n0,c\n0,d,2,1\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=r"line 3: non-finite"):
        load_features(path)


ONE_LINE = st.characters(exclude_characters="\r\n")
SOURCES = st.one_of(st.sampled_from(["?", "a,b", '"q"', "x\"y,z", "",
                                     "10.0.0.1", "ñ→ü"]),
                    st.text(ONE_LINE, max_size=8))


@st.composite
def keyed_datasets(draw):
    """Small datasets whose sources hold commas, quotes, non-ASCII text
    and '?', whose windows span int64, and whose scenario and keys may
    each be None."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 3))
    rows = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=n * d, max_size=n * d))
    keys = draw(st.none() | st.lists(
        st.tuples(st.integers(-2**63, 2**63 - 1), SOURCES),
        min_size=n, max_size=n))
    return Dataset(np.reshape(rows, (n, d)),
                   draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                   [f"f{j}" for j in range(d)],
                   scenario=draw(st.none() | st.text(ONE_LINE, max_size=10)),
                   keys=None if keys is None else np.array(keys, KEY))


# a lone surrogate in a source or in the scenario: text with no UTF-8
# encoding, which a Dataset may hold and a feature file may not
LONE_SURROGATES = [
    Dataset(np.zeros((1, 1)), [0], ["f0"], scenario="s",
            keys=np.array([(0, "\ud800")], KEY)),
    Dataset(np.zeros((1, 1)), [0], ["f0"], scenario="\udcff")]


def has_utf8(ds) -> bool:
    """Whether the scenario and every source of ds encode as UTF-8."""
    sources = [] if ds.keys is None else ds.keys["source"].tolist()
    try:
        "".join([ds.scenario or "", *sources]).encode()
    except UnicodeEncodeError:
        return False
    return True


def assert_refused_unopened(ds, path):
    with pytest.raises(ValueError, match="is not UTF-8 text"):
        write_features(ds, path)
    assert not path.exists()


@pytest.mark.parametrize("ds", LONE_SURROGATES)
def test_write_features_refuses_text_with_no_utf8_encoding(tmp_path, ds):
    # refused before the file is opened: the file written before stays
    path = tmp_path / "features.csv"
    write_features(replace(ds, scenario="s", keys=None), path)
    written = path.read_bytes()
    with pytest.raises(ValueError, match="is not UTF-8 text") as refusal:
        write_features(ds, path)
    named = ds.scenario if ds.keys is None else ds.keys["source"][0]
    assert repr(named) in str(refusal.value)
    assert path.read_bytes() == written


@settings(deadline=None, max_examples=150)
@given(keyed_datasets(), st.data())
@example(LONE_SURROGATES[0], None)
@example(LONE_SURROGATES[1], None)
def test_feature_file_round_trip_and_subset_lines(tmp_path_factory, ds,
                                                  data):
    path = tmp_path_factory.mktemp("typed") / "features.csv"
    if not has_utf8(ds):
        assert_refused_unopened(ds, path)
        return
    write_features(ds, path)
    written = path.read_bytes()
    write_features(load_features(path), path)
    assert path.read_bytes() == written

    if ds.keys is not None:
        idx = data.draw(st.lists(st.integers(0, ds.n - 1), max_size=2 * ds.n))
        write_features(ds.subset(idx), path)
        lines = written.splitlines(keepends=True)
        head = len(lines) - ds.n
        assert path.read_bytes().splitlines(keepends=True) == (
            lines[:head] + [lines[head + i] for i in idx])


FEATURE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, float(2**53 + 1), 1e16,
                     123456789012.0, 0.123456789012, -9.87654321098e-5,
                     1 / 3]),
    st.floats(allow_nan=False, allow_infinity=False))
ROW_SOURCES = SOURCES | st.sampled_from(["a\r\nb", "\n", "\r", "c,\nd"])


@st.composite
def feature_datasets(draw):
    """Datasets whose cells repeat a few drawn values and whose rows
    cross chunk boundaries; keys and scenario may each be None."""
    n = draw(st.sampled_from([1, 2, 17, CHUNK_ROWS, CHUNK_ROWS + 3]))
    d = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.array(draw(st.lists(FEATURE_VALUES, min_size=1, max_size=30)))
    sources = draw(st.lists(ROW_SOURCES, min_size=1, max_size=8))
    keys = None if draw(st.booleans()) else np.array(list(zip(
        rng.integers(-2**63, 2**63 - 1, n, endpoint=True).tolist(),
        [sources[i] for i in rng.integers(len(sources), size=n)])), KEY)
    return Dataset(values[rng.integers(len(values), size=(n, d))],
                   rng.integers(0, 2, n), [f"f{j}" for j in range(d)],
                   scenario=draw(st.none() | st.text(ONE_LINE, max_size=8)),
                   keys=keys)


@settings(deadline=None, max_examples=100)
@given(feature_datasets())
@example(LONE_SURROGATES[0])
@example(LONE_SURROGATES[1])
def test_writer_gives_the_bytes_of_the_per_row_writer(tmp_path_factory, ds):
    folder = tmp_path_factory.mktemp("writers")
    if not has_utf8(ds):
        assert_refused_unopened(ds, folder / "chunked.csv")
        return
    write_features(ds, folder / "chunked.csv")
    window_oracle.write_features(ds, folder / "per_row.csv")
    assert (folder / "chunked.csv").read_bytes() == (
        folder / "per_row.csv").read_bytes()


# Cells both loaders read, and cells that make a row fail, per column.
# NOT_UTF8 stands for a byte that is not UTF-8 in the written file.
NOT_UTF8 = "\ue000"
GOOD_CELLS = {
    "window": ["0", "7", " 12 ", "+3", "-0", str(2**63 - 1), str(-2**63)],
    "label": ["0", "1", " 1", "+0", "-0"],
    "feature": ["0", "-0", "1.5", "2.5e-310", "1E3", " 4 ",
                "\u00a01.5\u2003", "123456789012", "-9.87654321098e-05"],
}
BAD_CELLS = {
    "window": ["1_0", "\u0661", "1.5", "abc", "inf", "", str(2**63),
               str(-2**63 - 1), "9" * 30, NOT_UTF8],
    "label": ["2", "-1", "1_0", "x", "1.0", "", "\u0661", NOT_UTF8],
    "feature": ["1_0", "\u0661.5", "abc", "", "0x1", NOT_UTF8],
    "non-finite": ["inf", "-inf", "nan", "1e999"],
    "source": [f"a{NOT_UTF8}", f"\n{NOT_UTF8},"],
}
FILE_SOURCES = st.text(st.characters(exclude_characters=NOT_UTF8,
                                     exclude_categories=["Cs"]),
                       max_size=6) | st.sampled_from(
    ["a,b", '"q"', "x\r\ny", "\n", "\r", "c,\nd", "ñ→ü", ""])


@st.composite
def feature_files(draw):
    """(file bytes, file line on which the first faulty row starts or
    None): rows of valid cells with blank lines, CRLF or LF line ends and
    sources holding commas, quotes and line breaks, more than CHUNK_ROWS
    of them at times, with faulty rows on both sides of a chunk
    boundary."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 3))
    n = rng.choice([1, 3, 40, CHUNK_ROWS + 2, 2 * CHUNK_ROWS + 3])
    sources = draw(st.lists(FILE_SOURCES, min_size=1, max_size=5))
    kinds = ["window", "label"] + ["feature"] * d
    items = []  # a row's cells, or None for a blank line
    for _ in range(n):
        if rng.random() < 0.05:
            items.append(None)
        cells = [rng.choice(GOOD_CELLS[kind]) for kind in kinds]
        items.append(cells[:1] + [rng.choice(sources)] + cells[1:])
    near = list({i for i in (0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                             rng.randrange(len(items)), len(items) - 1)
                 if i < len(items) and items[i]})
    faulty = sorted(rng.sample(near, min(len(near), rng.randint(0, 3))))
    for i in faulty:
        fault = rng.choice(["short", "long", "window", "label", "feature",
                            "non-finite", "source"])
        if fault == "short":
            items[i] = items[i][:-1]
        elif fault == "long":
            items[i] = items[i] + ["0"]
        else:
            column = {"window": 0, "source": 1, "label": 2}.get(
                fault, rng.randint(3, 2 + d))
            items[i][column] = rng.choice(BAD_CELLS[fault])
    scenario = draw(st.none() | st.text(st.characters(
        exclude_characters="\r\n" + NOT_UTF8, exclude_categories=["Cs"]),
        max_size=6))
    text = "" if scenario is None else f"# scenario={scenario}\n"
    text += "window_index,src_addr,label," + ",".join(
        f"f{j}" for j in range(d)) + "\r\n"
    first_line = None
    for i, cells in enumerate(items):
        if faulty and i == faulty[0]:
            first_line = len(io.StringIO(text, newline="").readlines()) + 1
        end = rng.choice(["\n", "\r\n"])
        if cells is None:
            text += end
            continue
        buffer = io.StringIO()
        csv.writer(buffer).writerow(cells)
        text += buffer.getvalue()[:-2] + end
    return text.encode().replace(NOT_UTF8.encode(), b"\xff"), first_line


@settings(deadline=None, max_examples=100)
@given(feature_files())
def test_loader_gives_the_dataset_of_the_per_row_loader(tmp_path_factory,
                                                        file):
    data, first_line = file
    path = tmp_path_factory.mktemp("loaders") / "features.csv"
    path.write_bytes(data)
    if first_line is None:
        loaded, oracle = load_features(path), window_oracle.load_features(path)
        assert loaded.rows.tobytes() == oracle.rows.tobytes()
        assert loaded.labels.tolist() == oracle.labels.tolist()
        assert loaded.keys.tolist() == oracle.keys.tolist()
        assert (loaded.scenario, loaded.feature_names) == (
            oracle.scenario, oracle.feature_names)
        return
    with pytest.raises((ValueError, csv.Error)):
        window_oracle.load_features(path)
    with pytest.raises(ValueError, match=rf"line {first_line}: "):
        load_features(path)
