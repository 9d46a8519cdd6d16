"""Reference parsing for tests: one csv row at a time.

`parse_flow_record` parses one data row into a `FlowRecord`, applying one
rule per cell in the order of `CHECKS` and raising `FlowParseError` at the
first that fails. The timestamp rule is `botsift.flows.parse_timestamp`
and the text rules are those of `botsift.flows._CELL_RULES`; the number
rules are this module's own, with Python's float() and int() on one cell
at a time where the program decodes a column with numpy.

`load` is the straightforward version of `botsift.flows.load_scenario`:
every row of `csv.reader` goes through `parse_flow_record` on its own,
and `table` turns the accepted records into a FlowTable column by column,
with none of the program's table-building code. The program's column
decoder must reproduce it: the same tally, the same sample rows and the
same columns bit for bit.
"""

import csv
import math
from dataclasses import dataclass, fields
from datetime import datetime, timedelta
from typing import Optional, Sequence

import numpy as np

from botsift.flows import (_CELL_RULES, ABSENT, FlowParseError, FlowTable,
                           ParseStats, StringColumn, build_header_map,
                           parse_timestamp)

OPTIONAL = ("sport", "dport", "state", "s_tos", "d_tos")
TEXT = ("proto", "src_addr", "sport", "dir", "dst_addr", "dport", "state",
        "s_tos", "d_tos", "label")
EPOCH = datetime(1970, 1, 1)


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One bidirectional NetFlow row; an empty optional cell is None."""

    start_time: datetime
    dur: float
    proto: str
    src_addr: str
    sport: Optional[str]
    dir: str
    dst_addr: str
    dport: Optional[str]
    state: Optional[str]
    s_tos: Optional[int]
    d_tos: Optional[int]
    tot_pkts: int
    tot_bytes: int
    src_bytes: int
    label: str


def number(cell: str) -> float:
    """A binetflow number: plain ASCII, no '_' digit separators."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a number: {cell!r}")
    return float(cell)


def duration(cell: str) -> float:
    try:
        dur = number(cell)
    except ValueError as exc:
        raise FlowParseError("bad_duration", cell) from exc
    if not math.isfinite(dur):
        raise FlowParseError("bad_duration", cell)
    if dur < 0:
        raise FlowParseError("negative_duration", cell)
    return dur


def counter(noun: str, least: int):
    """The rule of a count cell: its truncated number, at least least."""
    def rule(cell: str) -> int:
        try:
            value = int(number(cell))
        except (ValueError, OverflowError) as exc:
            raise FlowParseError(f"bad_{noun}_count", cell) from exc
        if value < 0:
            raise FlowParseError(f"negative_{noun}_count", cell)
        if value < least:
            raise FlowParseError(f"bad_{noun}_count", cell)
        return value
    return rule


def text_rule(reason: str, rule):
    """A rule of _CELL_RULES, raising FlowParseError where it refuses."""
    def checked(cell: str) -> str:
        value = rule(cell)
        if value is None:
            raise FlowParseError(reason, cell)
        return value
    return checked


RULES = {"StartTime": ("start_time", parse_timestamp),
         "Dur": ("dur", duration),
         "TotPkts": ("tot_pkts", counter("packet", 1)),
         "TotBytes": ("tot_bytes", counter("byte", 0)),
         "SrcBytes": ("src_bytes", counter("byte", 0)),
         **{column: (name, text_rule(reason, rule))
            for column, name, reason, rule in _CELL_RULES}}
# The order in which a row's cells are checked: a row is rejected with
# the reason of the first that fails, src_bytes_exceed_total coming right
# after SrcBytes.
CHECKS = ("StartTime", "Dur", "SrcAddr", "DstAddr", "TotPkts", "TotBytes",
          "SrcBytes", "Label", "sTos", "dTos", "Proto", "Sport", "Dir",
          "Dport", "State")


def parse_flow_record(row: Sequence[str], header_map: dict) -> FlowRecord:
    """Parse one CSV data row into a FlowRecord.

    Raises FlowParseError with the reason code of the first check the row
    fails: short_row, bad_encoding, then each cell in the order of CHECKS.
    """
    try:
        cells = {name: row[idx] for name, idx in header_map.items()}
    except IndexError as exc:
        raise FlowParseError("short_row", f"{len(row)} cells") from exc
    try:
        "".join(cells.values()).encode()
    except UnicodeEncodeError as exc:
        raise FlowParseError("bad_encoding") from exc

    values = {}
    for column in CHECKS:
        name, rule = RULES[column]
        values[name] = rule(cells[column])
        if name == "src_bytes" and values[name] > values["tot_bytes"]:
            raise FlowParseError("src_bytes_exceed_total",
                                 f"{values[name]} > {values['tot_bytes']}")
    for name in OPTIONAL:  # the rules give FlowTable strings
        if values[name] == ABSENT:
            values[name] = None
        elif name in ("s_tos", "d_tos"):
            values[name] = int(values[name])
    return FlowRecord(**values)


def table(records: Sequence[FlowRecord], source_path: str = None,
          stats: ParseStats = None) -> FlowTable:
    """The records as a FlowTable, in order; an absent optional value
    reads ABSENT and a ToS byte the text of its value."""
    def strings(name):
        values = [ABSENT if v is None else str(v)
                  for v in (getattr(r, name) for r in records)]
        distinct = sorted(set(values))
        position = {v: i for i, v in enumerate(distinct)}
        return StringColumn(tuple(distinct),
                            np.array([position[v] for v in values], np.int32))

    def floats(name):
        return np.array([getattr(r, name) for r in records], np.float64)

    one_us = timedelta(microseconds=1)
    return FlowTable(
        t_us=np.array([(r.start_time - EPOCH) // one_us for r in records],
                      np.int64),
        **{name: floats(name)
           for name in ("dur", "tot_pkts", "tot_bytes", "src_bytes")},
        **{name: strings(name) for name in TEXT},
        source_path=source_path, parse_stats=stats)


def load(path) -> FlowTable:
    records, stats = [], ParseStats()
    with open(path, newline="", encoding="utf-8",
              errors="surrogateescape") as handle:
        reader = csv.reader(handle)
        header_map = build_header_map(next(reader))
        row_number = 0
        while True:
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error:  # the reader goes on at the next line
                row = None
            row_number += 1
            if row == []:
                continue
            try:
                if row is None:
                    raise FlowParseError("cell_too_long")
                records.append(parse_flow_record(row, header_map))
                stats.accepted += 1
            except FlowParseError as exc:
                stats.record_rejection(row_number, exc.reason)
    return table(records, str(path), stats)


def assert_same_columns(table: FlowTable, expected: FlowTable):
    """Every column equal bit for bit, dtypes included."""
    assert len(table) == len(expected)
    for f in fields(FlowTable):
        got, want = getattr(table, f.name), getattr(expected, f.name)
        if isinstance(want, StringColumn):
            assert got.values == want.values, f.name
            assert list(got.values) == sorted(set(got.values)), f.name
            assert got.codes.dtype == want.codes.dtype == np.int32, f.name
            assert got.codes.tobytes() == want.codes.tobytes(), f.name
        elif isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, f.name
            assert got.tobytes() == want.tobytes(), f.name


def records(table: FlowTable) -> list:
    """The table's flows as FlowRecords, an ABSENT optional value as None."""
    def strings(name):
        column = getattr(table, name)
        values = list(column.values)
        if name in OPTIONAL:
            values = [None if v == ABSENT else v for v in values]
        if name in ("s_tos", "d_tos"):
            values = [None if v is None else int(v) for v in values]
        return [values[i] for i in column.codes.tolist()]

    columns = {f.name: strings(f.name) for f in fields(FlowTable)
               if isinstance(getattr(table, f.name), StringColumn)}
    columns["start_time"] = table.start_times()
    columns["dur"] = table.dur.tolist()
    for name in ("tot_pkts", "tot_bytes", "src_bytes"):
        columns[name] = [int(v) for v in getattr(table, name).tolist()]
    return [FlowRecord(**dict(zip(columns, values)))
            for values in zip(*columns.values())]
