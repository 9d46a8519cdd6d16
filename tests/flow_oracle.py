"""Reference parsing for tests: one csv row at a time.

`load` is the straightforward version of `botsift.flows.load_scenario`:
every row of `csv.reader` goes through `parse_flow_record` on its own,
and the accepted FlowRecords become a table at the end. The program's
column-wise parse must reproduce it: the same tally, the same sample rows
and the same columns bit for bit.
"""

import csv
from dataclasses import fields

import numpy as np

from botsift.flows import (ABSENT, FlowParseError, FlowRecord,
                           FlowTable, ParseStats, StringColumn,
                           build_header_map, parse_flow_record)

OPTIONAL = ("sport", "dport", "state", "s_tos", "d_tos")


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
    return FlowTable.from_records(records, str(path), stats)


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
