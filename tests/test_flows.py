"""Flow CSV parsing, rejection accounting, round-trips, and summaries."""

import csv
import io
import logging
import math
import tempfile
from dataclasses import replace
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flow_oracle
from flow_oracle import FlowRecord, format_timestamp, parse_flow_record
from botsift.flows import (ABSENT, CANONICAL_COLUMNS,
                           CATEGORICAL_SUMMARY_COLUMNS, CHUNK_ROWS,
                           FlowParseError, ParseStats, build_header_map,
                           load_scenario, micros, parse_timestamp, summarize,
                           write_flow_csv)

HEADER_MAP = build_header_map(CANONICAL_COLUMNS)


def make_row(**overrides):
    base = {
        "StartTime": "2011/08/10 09:46:53.047277",
        "Dur": "3550.182373",
        "Proto": "udp",
        "SrcAddr": "147.32.84.229",
        "Sport": "13363",
        "Dir": "<->",
        "DstAddr": "184.173.217.40",
        "Dport": "53",
        "State": "CON",
        "sTos": "0",
        "dTos": "0",
        "TotPkts": "12",
        "TotBytes": "875",
        "SrcBytes": "413",
        "Label": "flow=Background-UDP-Established",
    }
    base.update(overrides)
    return [base[name] for name in CANONICAL_COLUMNS]


def parse(**overrides) -> FlowRecord:
    return parse_flow_record(make_row(**overrides), HEADER_MAP)


def write_capture(path, rows):
    with open(path, "w", newline="", encoding="utf-8",
              errors="surrogateescape") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANONICAL_COLUMNS)
        writer.writerows(rows)


def assert_load_rejects(path, row, reason):
    """A capture of the one row loads as one rejection under reason."""
    write_capture(path, [row])
    stats = load_scenario(path).parse_stats
    assert (stats.accepted, stats.rejected) == (0, 1)
    assert stats.reason_counts == {reason: 1}
    assert stats.samples == [(2, reason)]


def test_parse_basic_row_maps_fields():
    rec = parse(StartTime="2011/08/10 09:46:53.000", Dur="3600",
                Proto="UDP", Dport="53")
    assert rec.start_time == datetime(2011, 8, 10, 9, 46, 53)
    assert rec.dur == 3600.0
    assert rec.proto == "udp"
    assert rec.dport == "53"
    assert rec.tot_pkts == 12
    assert rec.label.startswith("flow=")


def test_empty_optional_cells_become_absent():
    rec = parse(Sport="", State="", sTos="", dTos="")
    assert rec.sport is None
    assert rec.state is None
    assert rec.s_tos is None
    assert rec.d_tos is None


def test_hex_port_tokens_kept_verbatim():
    rec = parse(Sport="0x0303", Dport="0xff")
    assert rec.sport == "0x0303"
    assert rec.dport == "0xff"


@pytest.mark.parametrize("frac,micro", [
    ("", 0), (".5", 500000), (".047277", 47277), (".1234567", 123456),
])
def test_timestamp_fraction_widths(frac, micro):
    ts = parse_timestamp(f"2011/08/10 09:46:53{frac}")
    assert ts.microsecond == micro


def test_timestamp_round_trip():
    ts = parse_timestamp("2011/08/10 09:46:53.047277")
    assert parse_timestamp(format_timestamp(ts)) == ts


@pytest.mark.parametrize("overrides,reason", [
    ({"StartTime": "10/08/2011T09:46:53"}, "bad_timestamp"),
    ({"Dur": "abc"}, "bad_duration"),
    ({"Dur": "nan"}, "bad_duration"),
    ({"Dur": "-1"}, "negative_duration"),
    ({"SrcAddr": " "}, "missing_src_addr"),
    ({"DstAddr": ""}, "missing_dst_addr"),
    ({"TotPkts": "0"}, "bad_packet_count"),
    ({"TotPkts": "x"}, "bad_packet_count"),
    ({"TotBytes": "-4"}, "negative_byte_count"),
    ({"SrcBytes": "900"}, "src_bytes_exceed_total"),
    ({"Label": "Background"}, "bad_label"),
    ({"sTos": "x"}, "bad_tos"),
    # two failed checks: the first in the order short_row, bad_encoding,
    # then the cell rules, src_bytes_exceed_total right after SrcBytes
    ({"StartTime": "10/08/2011T09:46:53", "Label": "Background"},
     "bad_timestamp"),
    ({"SrcBytes": "900", "Label": "Background"}, "src_bytes_exceed_total"),
    ({"Label": "flow=x\udcff", "StartTime": "x"}, "bad_encoding"),
    ({"Dur": "-1", "TotPkts": "0"}, "negative_duration"),
    ({"TotBytes": "x", "SrcBytes": "-1"}, "bad_byte_count"),
    ({"Label": "Background", "sTos": "x"}, "bad_label"),
    ({"StartTime": " 2011/08/10 09:46:53", "DstAddr": ""},
     "missing_dst_addr"),
    ({"SrcAddr": "", "DstAddr": ""}, "missing_src_addr"),
    ({"DstAddr": "", "TotPkts": "0"}, "missing_dst_addr"),
    ({"TotPkts": "0", "TotBytes": "x"}, "bad_packet_count"),
    ({"TotPkts": "-0.5"}, "bad_packet_count"),
    ({"SrcBytes": "-1", "Label": "Background"}, "negative_byte_count"),
    ({"Dur": "1\udcff", "StartTime": "x"}, "bad_encoding"),
    ({"sTos": "x", "dTos": "y"}, "bad_tos"),
    ({"TotBytes": "10", "SrcBytes": "20", "sTos": "x"},
     "src_bytes_exceed_total"),
    ({"Dur": "inf", "SrcAddr": ""}, "bad_duration"),
])
def test_rejection_reasons(tmp_path, overrides, reason):
    with pytest.raises(FlowParseError) as err:
        parse(**overrides)
    assert err.value.reason == reason
    assert_load_rejects(tmp_path / "one.csv", make_row(**overrides), reason)


def test_short_row_rejected(tmp_path):
    with pytest.raises(FlowParseError) as err:
        parse_flow_record(["2011/08/10 09:46:53", "1"], HEADER_MAP)
    assert err.value.reason == "short_row"
    assert_load_rejects(tmp_path / "one.csv", ["2011/08/10 09:46:53", "1"],
                        "short_row")


REASONS = {
    "short_row", "bad_timestamp", "bad_duration", "negative_duration",
    "missing_src_addr", "missing_dst_addr", "bad_packet_count",
    "negative_packet_count", "bad_byte_count", "negative_byte_count",
    "src_bytes_exceed_total", "bad_label", "bad_tos", "bad_encoding",
}

huge_ints = st.integers(10**19, 10**30) | st.integers(-10**30, -10**19)
hostile_cells = (
    st.sampled_from(["inf", "-inf", "nan", "1e400", "-1e400", "-0", "",
                     " ", "0x10", "1_0"])
    | huge_ints.map(str)
    | st.floats().map(repr)
    | st.text(max_size=6)
)
hostile_timestamps = st.builds(
    "{}/{}/{} {}:{}:{}.{}".format,
    *[st.integers(-10**21, 10**21) | st.integers(0, 60)] * 6,
    st.text("0123456789", max_size=8),
)


@settings(deadline=None, max_examples=300)
@given(st.dictionaries(st.sampled_from(CANONICAL_COLUMNS),
                       hostile_cells | hostile_timestamps))
@example({"StartTime": "99999999999999999999/01/01 00:00:00"})
@example({"StartTime": "2011/08/10 99999999999999999999:00:00"})
def test_parse_flow_record_is_total(replaced):
    # every row either parses or is rejected with a known reason code;
    # nothing else may escape and abort a load
    try:
        parse(**replaced)
    except FlowParseError as exc:
        assert exc.reason in REASONS


def test_header_map_requires_canonical_columns():
    with pytest.raises(ValueError, match="Dport"):
        build_header_map([c for c in CANONICAL_COLUMNS if c != "Dport"])


def test_header_map_ignores_extra_columns_and_uses_positions():
    header = ["Extra", *CANONICAL_COLUMNS]
    mapping = build_header_map(header)
    assert mapping["StartTime"] == 1
    assert "Extra" not in mapping


def test_load_scenario_counts_accepted_and_rejected(tmp_path):
    path = tmp_path / "cap.csv"
    write_capture(path, [make_row(), make_row(Dur="-1"), make_row()])
    table = load_scenario(path)
    assert table.parse_stats.accepted == 2
    assert table.parse_stats.rejected == 1
    assert table.parse_stats.reason_counts["negative_duration"] == 1
    assert len(table) == 2


def test_load_scenario_counts_infinite_cells(tmp_path):
    path = tmp_path / "inf.csv"
    write_capture(path, [make_row(), make_row(TotPkts="inf"),
                         make_row(TotBytes="-inf"), make_row(SrcBytes="inf"),
                         make_row(sTos="inf"), make_row(dTos="-inf")])
    stats = load_scenario(path).parse_stats
    assert stats.accepted == 1
    assert stats.rejected == 5
    assert stats.reason_counts["bad_packet_count"] == 1
    assert stats.reason_counts["bad_byte_count"] == 2
    assert stats.reason_counts["bad_tos"] == 2


# float() and int() read these as 12; a binetflow number is plain ASCII
SEPARATED_OR_NON_ASCII = ["1_2", "\u0661\u0662", " \u0661\u0662\u00a0"]


@pytest.mark.parametrize("column,cell,reason", [
    *[(column, cell, reason)
      for column, reason in (("Dur", "bad_duration"),
                             ("TotPkts", "bad_packet_count"),
                             ("TotBytes", "bad_byte_count"),
                             ("SrcBytes", "bad_byte_count"),
                             ("sTos", "bad_tos"), ("dTos", "bad_tos"))
      for cell in SEPARATED_OR_NON_ASCII],
    ("StartTime", "2011/08/1_0 09:46:53.047277", "bad_timestamp"),
    ("StartTime", "2011/08/10 09:46:53.1_2", "bad_timestamp"),
    ("StartTime", "2011/08/\u0661\u0660 09:46:53.047277", "bad_timestamp"),
])
def test_numbers_with_separators_or_non_ascii_are_rejected(
        tmp_path, column, cell, reason):
    with pytest.raises(FlowParseError) as err:
        parse(**{column: cell})
    assert err.value.reason == reason
    path = tmp_path / "numbers.csv"
    write_capture(path, [make_row(), make_row(**{column: cell})])
    stats = load_scenario(path).parse_stats
    assert (stats.accepted, stats.samples) == (1, [(3, reason)])


@pytest.mark.parametrize("column,cell", [
    ("Dur", "12"), ("TotPkts", "12"), ("TotBytes", "900"),
    ("SrcBytes", "12"), ("sTos", "12"), ("dTos", "12"),
    ("StartTime", "2011/08/10 09:46:53"),
])
def test_numbers_may_be_padded_with_any_whitespace(column, cell):
    assert parse(**{column: f"\u00a0{cell}\u2003"}) == parse(**{column: cell})


def test_load_scenario_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_capture(path, [])
    table = load_scenario(path)
    assert len(table) == 0
    assert table.parse_stats.rejected == 0


def test_load_scenario_missing_column_is_fatal(tmp_path):
    path = tmp_path / "bad.csv"
    with open(path, "w") as fh:
        fh.write("StartTime,Dur\n")
    with pytest.raises(ValueError, match="canonical"):
        load_scenario(path)


def test_load_scenario_unreadable_header_is_a_value_error(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("StartTime," + "x" * 200_000 + "\n")
    with pytest.raises(ValueError, match="header"):
        load_scenario(path)


def test_load_scenario_missing_file_is_fatal(tmp_path):
    with pytest.raises(OSError):
        load_scenario(tmp_path / "nope.csv")


def test_load_scenario_counts_a_cell_longer_than_the_csv_limit(tmp_path):
    path = tmp_path / "long.csv"
    write_capture(path, [make_row(), make_row(Label="flow=" + "x" * 200_000),
                         make_row()])
    stats = load_scenario(path).parse_stats
    assert (stats.accepted, stats.rejected) == (2, 1)
    assert stats.samples == [(3, "cell_too_long")]


def test_load_scenario_counts_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "bytes.csv"
    # a lone surrogate is written as the byte it escapes: 0xff here
    with open(path, "w", newline="", encoding="utf-8",
              errors="surrogateescape") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANONICAL_COLUMNS)
        writer.writerows([make_row(), make_row(SrcAddr="10.0.0.\udcff"),
                          make_row(Label="flow=Normal-\u00e9")])
    table = load_scenario(path)
    assert table.parse_stats.accepted == 2
    assert table.parse_stats.samples == [(3, "bad_encoding")]
    assert "flow=Normal-\u00e9" in table.label.values


def test_load_scenario_names_the_file_line_of_a_rejected_row(tmp_path,
                                                            caplog):
    # a blank line 3 and a record on lines 4-5 come before the bad row
    path = tmp_path / "lines.csv"
    write_capture(path, [make_row(), [], make_row(Label="flow=a\nb"),
                         make_row(Dur="abc")])
    with caplog.at_level(logging.WARNING, logger="botsift.flows"):
        stats = load_scenario(path).parse_stats
    assert (stats.accepted, stats.samples) == (2, [(6, "bad_duration")])
    assert caplog.messages == ["lines.csv line 6 rejected (bad_duration)"]


def test_load_scenario_names_lines_after_an_unreadable_row(tmp_path):
    # the quoted Label opens on line 3 and passes the csv limit on line 4,
    # where the reader gives up: the next row starts on line 5
    path = tmp_path / "long.csv"
    label = "flow=" + "x" * 100_000 + "\n" + "x" * 100_000
    write_capture(path, [make_row(), make_row(Label=label),
                         make_row(Dur="abc"), make_row()])
    stats = load_scenario(path).parse_stats
    assert stats.accepted == 2
    assert stats.samples == [(3, "cell_too_long"), (5, "bad_duration")]


def test_load_scenario_names_lines_past_a_chunk_boundary(tmp_path):
    # each row spans two lines and a blank line follows it: the first
    # CHUNK_ROWS of them fill two chunks of csv rows
    path = tmp_path / "capture.csv"
    write_capture(path, [make_row(Label="flow=a\nb"), []] * CHUNK_ROWS
                  + [make_row(), make_row(Dur="abc")])
    stats = load_scenario(path).parse_stats
    assert stats.samples == [(3 * CHUNK_ROWS + 3, "bad_duration")]


def test_load_scenario_reads_and_ignores_a_scenario_line(tmp_path):
    # a feature file's first line; the rows below it keep their file lines
    path = tmp_path / "capture.csv"
    write_capture(path, [make_row(), make_row(Dur="abc")])
    plain = load_scenario(path)
    path.write_bytes(b"# scenario=demo\n" + path.read_bytes())
    named = load_scenario(path)
    flow_oracle.assert_same_columns(named, plain)
    assert named.parse_stats.samples == [(4, "bad_duration")]


def test_write_flow_csv_writes_utf8(tmp_path):
    path = tmp_path / "utf8.csv"
    write_flow_csv(flow_oracle.table([parse(Label="flow=Normal-\u00e9")]),
                   path)
    assert "flow=Normal-\u00e9".encode() in path.read_bytes()


# Cells that the column decoder must take or leave exactly as the oracle's
# parse_flow_record does; "\udcff" is written as the byte 0xff.
STAMP_CELLS = [
    "2011/08/10 09:46:53.047277", "2011/08/10 09:46:53",
    "2011/08/10 09:46:53.5", "2011/08/10 09:46:53.1234567",
    " 2011/08/10 09:46:53.047277", "2011/08/10 09:46:53.04727 ",
    "2012/02/29 23:59:59.999999", "2011/02/29 12:00:00.000000",
    "1900/02/29 00:00:00.000000", "2000/02/29 00:00:00.000000",
    "2011/04/31 00:00:00.000000", "2011/13/01 00:00:00.000000",
    "2011/00/10 00:00:00.000000", "2011/08/00 00:00:00.000000",
    "0000/01/01 00:00:00.000000", "0001/01/01 00:00:00.000000",
    "9999/12/31 23:59:59.999999", "1969/12/31 23:59:59.999999",
    "2011/08/10 24:00:00.000000", "2011/08/10 09:60:00.000000",
    "2011/08/10 09:46:60.000000", "2011-08-10 09:46:53.047277",
    "2011/08/10T09:46:53.047277", "２011/08/10 09:46:53.047277",
    "2011/08/10 09:46:53.04727x", "+011/08/10 09:46:53.047277",
    "2011/08/10 09:46:53,047277", "2011/08/10 09:46:5\udcff.047277",
    "2011/08/1_0 09:46:53.047277", "2011/08/10 09:46:53.1_2",
    "2011/08/١٠ 09:46:53.047277", "",
]
NUMBER_CELLS = [
    "0", "-0", "-0.0", "0.5", "-0.5", "0.9", "1", "1.9", "-1", "12", " 7 ",
    "1_000", "2.5e3", "inf", "-inf", "nan", "1e400", "-1e400", "1e19",
    "9223372036854775807", "9223372036854775808", "18446744073709551616",
    "", "x", "١٢", "\u00a07", "1\udcff",
]
TEXT_CELLS = ["", " ", "tcp", " TCP ", ABSENT, "a,b", 'q"uote', "a\nb",
              "c\r\nd", "é", "x\udcffy", "10.0.0.1", "0", " 1 ", "1.9",
              "-0", "1e400", "nan", "2e19", "1_0", "١٢", "\u00a07", "a\x00",
              "a"]
LABEL_CELLS = ["flow=Background", " flow=From-Botnet-V42 ", "", "Background",
               "flow=é", "flow=a,b", "flow=x\udcff"]
CATALOGUE = {column: {"StartTime": STAMP_CELLS, "Dur": NUMBER_CELLS,
                      "TotPkts": NUMBER_CELLS, "TotBytes": NUMBER_CELLS,
                      "SrcBytes": NUMBER_CELLS,
                      "Label": LABEL_CELLS}.get(column, TEXT_CELLS)
             for column in CANONICAL_COLUMNS}
CELLS = {column: st.sampled_from(cells) for column, cells in CATALOGUE.items()}
CELLS["StartTime"] |= st.datetimes().map(format_timestamp)
for column in ("Dur", "TotPkts", "TotBytes", "SrcBytes"):
    CELLS[column] |= (st.integers(-3, 2**70).map(str)
                      | st.floats().map(repr))
# a hostile row replaces one or two cells of a valid row, so that a single
# bad cell decides whether it is accepted
ROW_KINDS = (
    st.lists(st.sampled_from(CANONICAL_COLUMNS), min_size=1, max_size=2,
             unique=True).flatmap(lambda columns: st.fixed_dictionaries(
                 {c: CELLS[c] for c in columns})).map(
                     lambda cells: ("row", cells))
    | st.tuples(st.just("short"), st.integers(0, 15))
    | st.sampled_from([("blank", None), ("long", None)])
)


def filler_row(i: int) -> dict:
    return dict(zip(CANONICAL_COLUMNS, make_row(
        StartTime=f"2011/08/10 09:{i // 600 % 60:02d}:{i // 10 % 60:02d}"
                  f".{i * 7919 % 10**6:06d}",
        SrcAddr=f"10.0.{i % 5}.1", Sport=str(1024 + i),
        TotBytes=str(100 + i), SrcBytes=str(i % 100))))


def capture_text(header: list, kinds: list, extra: str, end: str) -> str:
    """Rows of kind ("row", replaced cells), ("short", cell count),
    ("blank", None) or ("long", None), the i-th built on filler_row(i)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=end)
    writer.writerow(header)
    for i, (kind, arg) in enumerate(kinds):
        cells = {**filler_row(i), "Extra": extra}
        if kind == "blank":
            out.write(end)
            continue
        if kind == "row":
            cells.update(arg)
        if kind == "long":  # quoted, with a break before the csv limit
            cells["Label"] = "flow=" + "x" * 100_000 + "\r\n" + "x" * 40_000
        row = [cells[name] for name in header]
        writer.writerow(row[:arg] if kind == "short" else row)
    return out.getvalue()


def assert_matches_oracle(path: Path, text: str):
    path.write_text(text, encoding="utf-8", errors="surrogateescape")
    table, expected = load_scenario(path), flow_oracle.load(path)
    assert table.parse_stats == expected.parse_stats
    flow_oracle.assert_same_columns(table, expected)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_load_scenario_matches_per_row_oracle_on_each_hostile_cell(
        tmp_path, end):
    # each catalogued cell alone in a valid row, then valid rows with new
    # source ports past the first chunk
    kinds = [("row", {column: cell}) for column, cells in CATALOGUE.items()
             for cell in cells]
    kinds += [("short", k) for k in range(16)] + [("blank", None),
                                                  ("long", None)]
    kinds += [("row", {})] * (CHUNK_ROWS + 100 - len(kinds))
    header = ["Extra", *CANONICAL_COLUMNS]
    assert_matches_oracle(tmp_path / "catalogue.csv",
                          capture_text(header, kinds, "x\udcffy", end))


@st.composite
def hostile_captures(draw) -> str:
    """A capture as text: canonical columns in any order, maybe an extra
    one, any line ending, and a few hostile rows among valid ones,
    sometimes around the first chunk boundary."""
    header = list(draw(st.permutations(CANONICAL_COLUMNS)))
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), "Extra")
    extra = draw(st.sampled_from(["7", "", "x\udcffy", "a,b"]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    n = draw(st.integers(0, 30) | st.integers(CHUNK_ROWS - 2, CHUNK_ROWS + 2))
    kinds = [("row", {})] * n
    at = st.integers(0, max(n - 1, 0)) | st.integers(CHUNK_ROWS - 3,
                                                     CHUNK_ROWS + 1)
    for i, kind in draw(st.lists(st.tuples(at, ROW_KINDS), max_size=25)):
        if i < n:
            kinds[i] = kind
    return capture_text(header, kinds, extra, end)


@settings(deadline=None, max_examples=150)
@given(hostile_captures())
def test_load_scenario_matches_per_row_oracle(text):
    with tempfile.TemporaryDirectory() as tmp:
        assert_matches_oracle(Path(tmp) / "capture.csv", text)


def test_round_trip_preserves_records(tmp_path):
    originals = [
        parse(),
        parse(Sport="", State="", sTos="", dTos="", Proto="ICMP"),
        parse(Dur="0.000001", TotBytes="60", SrcBytes="60"),
        parse(StartTime="2011/08/10 09:46:53.1234567"),
    ]
    path = tmp_path / "roundtrip.csv"
    write_flow_csv(flow_oracle.table(originals), path)
    table = load_scenario(path)
    assert table.parse_stats.rejected == 0
    assert flow_oracle.records(table) == originals


def test_write_flow_csv_pads_years_below_1000(tmp_path):
    early = parse(StartTime="0005/01/01 00:00:00.000000")
    path = tmp_path / "year5.csv"
    write_flow_csv(flow_oracle.table([early]), path)
    with open(path, newline="", encoding="utf-8") as fh:
        cells = list(csv.reader(fh))[1]
    assert cells[0] == "0005/01/01 00:00:00.000000"
    table = load_scenario(path)
    assert (table.parse_stats.accepted, table.parse_stats.rejected) == (1, 0)
    assert flow_oracle.records(table) == [early]


# years 1 to 9999, some draws held below year 1000 or before 1970
START_TIMES = (st.datetimes(max_value=datetime(999, 12, 31, 23, 59, 59))
               | st.datetimes(max_value=datetime(1969, 12, 31, 23, 59, 59))
               | st.datetimes())


@settings(deadline=None, max_examples=100)
@given(st.lists(START_TIMES, min_size=1, max_size=30))
@example([datetime.min, datetime.max, datetime(1969, 12, 31, 23, 59, 59,
                                               999999), datetime(1970, 1, 1)])
def test_write_flow_csv_start_times_match_oracle(starts):
    written = flow_oracle.table([replace(parse(), start_time=ts)
                                 for ts in starts])
    assert written.t_us.tolist() == list(map(micros, starts))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "starts.csv"
        write_flow_csv(written, path)
        with open(path, newline="", encoding="utf-8") as fh:
            cells = [row[0] for row in csv.reader(fh)][1:]
        table = load_scenario(path)
    assert cells == list(map(format_timestamp, starts))
    assert table.parse_stats.rejected == 0
    assert table.t_us.tolist() == written.t_us.tolist()


def test_serialize_uses_exact_duration(tmp_path):
    rec = parse(Dur="0.1")
    path = tmp_path / "dur.csv"
    write_flow_csv(flow_oracle.table([rec]), path)
    with open(path, newline="") as fh:
        cells = list(csv.reader(fh))[1]
    assert float(cells[1]) == rec.dur


def make_table(records):
    return flow_oracle.table(records, "test",
                             ParseStats(accepted=len(records)))


def test_summarize_single_record():
    table = make_table([parse(TotBytes="60", SrcBytes="60")])
    stats = summarize(table)
    b = stats.numeric["tot_bytes"]
    assert (b.min, b.max, b.mean, b.median) == (60, 60, 60, 60)
    assert b.std == 0.0


def test_summarize_matches_two_pass_oracle():
    rng = np.random.default_rng(5)
    records = [parse(Dur=repr(float(d)), TotBytes=str(int(b)),
                     SrcBytes="0")
               for d, b in zip(rng.uniform(0, 100, 1000),
                               rng.integers(60, 10_000, 1000))]
    stats = summarize(make_table(records))

    durs = np.array([r.dur for r in records])
    # independent two-pass mean/std
    mean = sum(durs) / len(durs)
    var = sum((d - mean) ** 2 for d in durs) / len(durs)
    d = stats.numeric["dur"]
    assert math.isclose(d.mean, mean, rel_tol=1e-12)
    assert math.isclose(d.std, math.sqrt(var), rel_tol=1e-9)
    assert d.min <= d.median <= d.q3 <= d.max
    # sample mean within 3 standard errors of the population mean (50)
    assert abs(d.mean - 50.0) <= 3 * (100 / math.sqrt(12)) / math.sqrt(1000)


def test_summarize_permutation_invariant():
    records = [parse(Dur=str(i), Sport=str(i)) for i in range(20)]
    a = summarize(make_table(records))
    b = summarize(make_table(records[::-1]))
    assert a == b


def test_summarize_categorical_counts_absent():
    records = [parse(Sport=""), parse(Sport="80"), parse(Sport="80")]
    stats = summarize(make_table(records))
    sport = stats.categorical["sport"]
    assert sport.distinct == 2
    assert sport.top[0] == ("80", 2)
    assert (ABSENT, 1) in sport.top


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.sampled_from(["", "22", "80", "443", "8080"]),
                          st.sampled_from(["tcp", "udp", "icmp"])),
                min_size=1, max_size=30),
       st.integers(1, 6))
def test_summarize_top_matches_sorted_oracle(cells, top_k):
    table = make_table([parse(Sport=sport, Proto=proto)
                        for sport, proto in cells])
    stats = summarize(table, top_k)
    for column in CATEGORICAL_SUMMARY_COLUMNS:
        # most frequent first, ties to the smaller value
        strings = getattr(table, column)
        expected = sorted(zip(strings.values, strings.counts().tolist()),
                          key=lambda kv: (-kv[1], kv[0]))[:top_k]
        assert stats.categorical[column].top == expected


def test_summarize_empty_table():
    stats = summarize(make_table([]))
    assert stats.row_count == 0
    assert stats.numeric["dur"] is None
