"""Parsing and summary statistics for bidirectional NetFlow CSV captures.

Input files follow the binetflow convention: a comma-separated header row
naming at least the 15 canonical columns (StartTime, Dur, Proto, SrcAddr,
Sport, Dir, DstAddr, Dport, State, sTos, dTos, TotPkts, TotBytes, SrcBytes,
Label), then one flow per line. Parsing is total: every data row either
becomes a flow of the columnar FlowTable or a counted rejection with a
reason code.

`load_scenario` decodes each chunk of rows one column at a time and sends
every row it cannot prove valid that way through `parse_flow_record`, the
per-row parser, which decides the row's values or its reason code.
"""

from __future__ import annotations

import csv
import logging
import sys
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from itertools import compress, count, filterfalse, islice, repeat
from operator import is_
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

logger = logging.getLogger(__name__)

CANONICAL_COLUMNS = (
    "StartTime", "Dur", "Proto", "SrcAddr", "Sport", "Dir", "DstAddr",
    "Dport", "State", "sTos", "dTos", "TotPkts", "TotBytes", "SrcBytes",
    "Label",
)

NUMERIC_SUMMARY_COLUMNS = ("dur", "tot_pkts", "tot_bytes", "src_bytes")
CATEGORICAL_SUMMARY_COLUMNS = (
    "proto", "src_addr", "sport", "dst_addr", "dport", "state", "label",
    "dir", "s_tos", "d_tos",
)

# Display marker for empty optional cells (also used as the category key for
# absent values in feature extraction).
ABSENT = "∅"

# FlowTable.t_us counts microseconds from this naive instant.
_EPOCH = datetime(1970, 1, 1)
_ONE_US = timedelta(microseconds=1)

# Rows decoded together by load_scenario: enough to amortize the numpy calls
# of a chunk, few enough that its cell strings stay a few MiB.
CHUNK_ROWS = 2048

_MAX_REJECTION_SAMPLES = 10


class FlowParseError(ValueError):
    """A data row that cannot become a valid FlowRecord. Carries a reason code."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One bidirectional NetFlow row."""

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


@dataclass
class ParseStats:
    accepted: int = 0
    rejected: int = 0
    reason_counts: Counter = field(default_factory=Counter)
    # (1-based data row number, reason) for the first few rejections
    samples: list = field(default_factory=list)

    def record_rejection(self, row_number: int, reason: str):
        self.rejected += 1
        self.reason_counts[reason] += 1
        if len(self.samples) < _MAX_REJECTION_SAMPLES:
            self.samples.append((row_number, reason))


@dataclass(frozen=True)
class StringColumn:
    """A text column: its distinct values in sorted order, and per flow
    the int32 position of the flow's value among them."""

    values: tuple
    codes: np.ndarray

    def counts(self) -> np.ndarray:
        return np.bincount(self.codes, minlength=len(self.values))

    def matches(self, predicate) -> np.ndarray:
        """Per flow, whether predicate holds for its value."""
        return np.array([predicate(v) for v in self.values], bool)[self.codes]


@dataclass
class FlowTable:
    """Parsed flows, one array per column, plus parse accounting.

    `t_us` holds int64 microseconds since 1970-01-01 (naive), read as
    times through the methods below: float64 epoch seconds cannot hold
    every microsecond of a present-day time. `dur` and the three counts
    are float64; a count is the truncated float of its cell. The other
    columns are StringColumns, with an empty optional cell as ABSENT and
    a ToS byte as the text of its integer value.
    """

    t_us: np.ndarray
    dur: np.ndarray
    tot_pkts: np.ndarray
    tot_bytes: np.ndarray
    src_bytes: np.ndarray
    proto: StringColumn
    src_addr: StringColumn
    sport: StringColumn
    dir: StringColumn
    dst_addr: StringColumn
    dport: StringColumn
    state: StringColumn
    s_tos: StringColumn
    d_tos: StringColumn
    label: StringColumn
    source_path: Optional[str] = None
    parse_stats: Optional[ParseStats] = None

    def __len__(self):
        return len(self.t_us)

    def start_times(self) -> list:
        """Each flow's start time, in table order."""
        return [_EPOCH + timedelta(microseconds=t) for t in self.t_us.tolist()]

    def start(self) -> datetime:
        """The earliest start time of a non-empty table."""
        return _EPOCH + timedelta(microseconds=int(self.t_us.min()))

    def seconds_after(self, origin: datetime) -> np.ndarray:
        """(start - origin).total_seconds() of each flow, bit for bit: the
        microsecond difference over 1e6, which is exact while the
        difference fits in 53 bits, and done on Python ints beyond that."""
        delta = self.t_us - (origin - _EPOCH) // _ONE_US
        seconds = delta / 1e6
        far = np.flatnonzero(np.abs(delta) > 2**53)
        seconds[far] = [d / 10**6 for d in delta[far].tolist()]
        return seconds

    @classmethod
    def from_records(cls, records: Sequence[FlowRecord],
                     source_path: str = None,
                     parse_stats: ParseStats = None) -> "FlowTable":
        """The records as columns, in order; an absent optional value
        reads ABSENT."""
        builder = _TableBuilder()
        builder.chunks.append(builder.record_columns(records))
        return builder.table(source_path, parse_stats)


@dataclass
class NumericStats:
    min: float
    max: float
    mean: float
    std: float
    median: float
    q3: float


@dataclass
class CategoricalStats:
    distinct: int
    top: list  # [(value, count), ...] sorted by count desc then value


@dataclass
class SummaryStats:
    row_count: int
    numeric: dict  # column -> NumericStats (or None for an empty table)
    categorical: dict  # column -> CategoricalStats


def _is_number_text(cell: str) -> bool:
    """Whether cell, stripped, may hold a number: float() and int() also
    read '_' digit separators and non-ASCII digits, which no binetflow
    writer produces."""
    text = cell.strip()
    return text.isascii() and "_" not in text


def _number(cell: str) -> float:
    if not _is_number_text(cell):
        raise ValueError(f"not a number: {cell!r}")
    return float(cell)


def parse_timestamp(text: str) -> datetime:
    """Parse 'YYYY/MM/DD HH:MM:SS[.fraction]' (naive, no timezone).

    Any fractional-second width is accepted; digits beyond microseconds are
    truncated.
    """
    if not _is_number_text(text):
        raise FlowParseError("bad_timestamp", text)
    try:
        date_part, _, time_part = text.strip().partition(" ")
        year, month, day = date_part.split("/")
        clock, _, frac = time_part.partition(".")
        hour, minute, second = clock.split(":")
        micro = int((frac + "000000")[:6]) if frac else 0
        return datetime(int(year), int(month), int(day),
                        int(hour), int(minute), int(second), micro)
    except (ValueError, TypeError, OverflowError) as exc:
        raise FlowParseError("bad_timestamp", text) from exc


def format_timestamp(ts: datetime) -> str:
    """The fixed-width form: strftime's %Y does not pad a year below
    1000."""
    return f"{ts.year:04d}/{ts:%m/%d %H:%M:%S.%f}"


def _optional_token(cell: str) -> Optional[str]:
    cell = cell.strip()
    return sys.intern(cell) if cell else None


def _optional_int(cell: str, reason: str) -> Optional[int]:
    cell = cell.strip()
    if not cell:
        return None
    try:
        return int(_number(cell))
    except (ValueError, OverflowError) as exc:
        raise FlowParseError(reason, cell) from exc


def _count(cell: str, name: str) -> int:
    try:
        value = int(_number(cell))
    except (ValueError, TypeError, OverflowError) as exc:
        raise FlowParseError(f"bad_{name}", cell) from exc
    if value < 0:
        raise FlowParseError(f"negative_{name}", cell)
    return value


def _is_utf8(text: str) -> bool:
    """False for text holding a lone surrogate: bytes of the file that
    were not UTF-8, kept as surrogates on decoding."""
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return True


def build_header_map(header: Sequence[str]) -> dict:
    """Map canonical column names to their index in the header row.

    Extra columns are ignored; a missing canonical column is fatal.
    """
    positions = {name.strip(): i for i, name in enumerate(header)}
    missing = [name for name in CANONICAL_COLUMNS if name not in positions]
    if missing:
        raise ValueError(f"header is missing canonical columns: {missing}")
    return {name: positions[name] for name in CANONICAL_COLUMNS}


def parse_flow_record(row: Sequence[str], header_map: dict) -> FlowRecord:
    """Parse one CSV data row into a FlowRecord.

    Raises FlowParseError (with a reason code) for rows violating the record
    invariants; callers count these rather than aborting.
    """
    try:
        cells = {name: row[idx] for name, idx in header_map.items()}
    except IndexError as exc:
        raise FlowParseError("short_row", f"{len(row)} cells") from exc
    if not _is_utf8("".join(cells.values())):
        raise FlowParseError("bad_encoding")

    start_time = parse_timestamp(cells["StartTime"])

    try:
        dur = _number(cells["Dur"])
    except ValueError as exc:
        raise FlowParseError("bad_duration", cells["Dur"]) from exc
    if not np.isfinite(dur):
        raise FlowParseError("bad_duration", cells["Dur"])
    if dur < 0:
        raise FlowParseError("negative_duration", cells["Dur"])

    src_addr = cells["SrcAddr"].strip()
    if not src_addr:
        raise FlowParseError("missing_src_addr")
    dst_addr = cells["DstAddr"].strip()
    if not dst_addr:
        raise FlowParseError("missing_dst_addr")

    tot_pkts = _count(cells["TotPkts"], "packet_count")
    if tot_pkts < 1:
        raise FlowParseError("bad_packet_count", cells["TotPkts"])
    tot_bytes = _count(cells["TotBytes"], "byte_count")
    src_bytes = _count(cells["SrcBytes"], "byte_count")
    if src_bytes > tot_bytes:
        raise FlowParseError("src_bytes_exceed_total",
                             f"{src_bytes} > {tot_bytes}")

    label = cells["Label"].strip()
    if label and not label.startswith("flow="):
        raise FlowParseError("bad_label", label)

    return FlowRecord(
        start_time=start_time,
        dur=dur,
        proto=sys.intern(cells["Proto"].strip().lower()),
        src_addr=sys.intern(src_addr),
        sport=_optional_token(cells["Sport"]),
        dir=sys.intern(cells["Dir"].strip()),
        dst_addr=sys.intern(dst_addr),
        dport=_optional_token(cells["Dport"]),
        state=_optional_token(cells["State"]),
        s_tos=_optional_int(cells["sTos"], "bad_tos"),
        d_tos=_optional_int(cells["dTos"], "bad_tos"),
        tot_pkts=tot_pkts,
        tot_bytes=tot_bytes,
        src_bytes=src_bytes,
        label=label,
    )


_NUMERIC = ("t_us", "dur", "tot_pkts", "tot_bytes", "src_bytes")
_DTYPES = dict(zip(_NUMERIC, (np.int64, *[np.float64] * 4)))


class _TableBuilder:
    """Collects accepted flows chunk by chunk. A string column's values
    get ids in order of first appearance; once all chunks are in, the
    values of accepted flows are sorted and the ids renumbered."""

    def __init__(self):
        self.chunks = []
        # per string column: each value, and each valid cell text decoded
        # so far, to the id of its value; and id -> value. A value decodes
        # to itself, so the two kinds of key agree. The one exception, a
        # ToS cell reading ABSENT, _decode_columns rejects on its own.
        self.ids = {name: {} for name in CATEGORICAL_SUMMARY_COLUMNS}
        self.values = {name: [] for name in CATEGORICAL_SUMMARY_COLUMNS}

    def ids_of(self, column: str, values: list) -> np.ndarray:
        """The ids of values, None reading -1; a new value gets the next
        id."""
        ids, known = self.ids[column], self.values[column]
        fresh = dict.fromkeys(filterfalse(ids.__contains__, values))
        fresh.pop(None, None)
        ids.update(zip(fresh, count(len(known))))
        known.extend(fresh)
        return np.fromiter(map(ids.get, values, repeat(-1)), np.int32,
                           len(values))

    def cell_ids(self, column: str, cells: Sequence[str], decode):
        """Per cell, the id of its value, or -1 where parse_flow_record
        would reject the cell. A valid cell text is decoded once per
        load."""
        ids, known = self.ids[column], self.values[column]
        codes = np.fromiter(map(ids.get, cells, repeat(-1)), np.int32,
                            len(cells))
        unseen = codes < 0
        if unseen.any():
            cells = list(compress(cells, unseen.tolist()))
            new = list(dict.fromkeys(cells))
            values = decode(new)
            if not "".join(new).isascii():
                values = [v if _is_utf8(c) else None
                          for c, v in zip(new, values)]
            if all(map(is_, values, new)):  # each cell is its own value
                ids.update(zip(new, count(len(known))))
                known.extend(new)
            else:  # an invalid cell stays out, to be decoded again
                new_ids = self.ids_of(column, values)
                ids.update(compress(zip(new, new_ids.tolist()),
                                    (new_ids >= 0).tolist()))
            codes[unseen] = np.fromiter(map(ids.get, cells, repeat(-1)),
                                        np.int32, len(cells))
        return codes

    def record_columns(self, records: Sequence[FlowRecord]) -> dict:
        """The columns of FlowRecords, strings as ids; an absent optional
        value reads ABSENT."""
        n = len(records)
        out = {"t_us": np.fromiter(
            ((r.start_time - _EPOCH) // _ONE_US for r in records), np.int64,
            n)}
        for name in NUMERIC_SUMMARY_COLUMNS:
            out[name] = np.fromiter(
                (getattr(r, name) for r in records), np.float64, n)
        for name in CATEGORICAL_SUMMARY_COLUMNS:
            out[name] = self.ids_of(name, [
                ABSENT if (v := getattr(r, name)) is None else str(v)
                for r in records])
        return out

    def table(self, source_path, parse_stats) -> FlowTable:
        columns = {}
        for name in _NUMERIC + CATEGORICAL_SUMMARY_COLUMNS:
            parts = [chunk.pop(name) for chunk in self.chunks]
            columns[name] = (np.concatenate(parts) if parts
                             else np.empty(0, _DTYPES.get(name, np.int32)))
        for name, ids in self.ids.items():
            # a value met only in rejected rows has no flow
            known = self.values[name]
            used = np.bincount(columns[name], minlength=len(known))
            values = sorted(compress(known, used.tolist()))
            rank = np.empty(len(used), np.int32)
            rank[list(map(ids.__getitem__, values))] = np.arange(len(values))
            columns[name] = StringColumn(tuple(values), rank[columns[name]])
        return FlowTable(**columns, source_path=source_path,
                         parse_stats=parse_stats)


# The fixed-width timestamp the column decoder reads; any other form is
# left to parse_timestamp.
_STAMP = "0000/00/00 00:00:00.000000"
_STAMP_SEPARATORS = [i for i, c in enumerate(_STAMP) if c != "0"]
_STAMP_DIGITS = [i for i, c in enumerate(_STAMP) if c == "0"]


def _stamp_field(digits: np.ndarray, lo: int, hi: int) -> np.ndarray:
    return digits[:, lo:hi].astype(np.int64) @ 10 ** np.arange(hi - lo - 1,
                                                               -1, -1)


def _timestamps(cells: Sequence[str]) -> tuple:
    """(µs since 1970-01-01, valid): the cells of the form _STAMP that
    name a real time, decoded; other cells are not valid and read
    garbage."""
    n = len(cells)
    valid = np.fromiter(map(len, cells), np.intp, n) == len(_STAMP)
    if not valid.all():
        cells = [c if ok else _STAMP for c, ok in zip(cells, valid.tolist())]
    # 'replace' keeps one byte per character, so a non-ASCII cell stays
    # 26 bytes wide and fails the character checks
    raw = np.frombuffer("".join(cells).encode("ascii", "replace"),
                        np.uint8).reshape(n, len(_STAMP))
    digits = raw - ord("0")  # uint8: a byte below '0' wraps above 9
    valid &= (raw[:, _STAMP_SEPARATORS]
              == np.frombuffer(_STAMP.replace("0", "").encode(),
                               np.uint8)).all(axis=1)
    valid &= (digits[:, _STAMP_DIGITS] <= 9).all(axis=1)
    year, month, day, hour, minute, second = (
        _stamp_field(digits, lo, hi)
        for lo, hi in ((0, 4), (5, 7), (8, 10), (11, 13), (14, 16), (17, 19)))
    valid &= ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
              & (hour < 24) & (minute < 60) & (second < 60))
    months = (year - 1970) * 12 + np.clip(month, 1, 12) - 1
    first = months.astype("M8[M]").astype("M8[D]").astype(np.int64)
    after = (months + 1).astype("M8[M]").astype("M8[D]").astype(np.int64)
    valid &= day <= after - first
    seconds = ((first + day - 1) * 24 + hour) * 3600 + minute * 60 + second
    return seconds * 1_000_000 + _stamp_field(digits, 20, 26), valid


def _floats(cells: Sequence[str]) -> np.ndarray:
    """_number() of each cell, NaN where it refuses the cell: no column
    read this way accepts a NaN."""
    values, rest = [], iter(cells)
    while len(values) < len(cells):
        try:
            values.extend(map(float, rest))
        except ValueError:  # rest has moved past the refused cell
            values.append(np.nan)
    values = np.array(values, np.float64)
    if not _is_number_text("".join(cells)):
        values[[not _is_number_text(c) for c in cells]] = np.nan
    return values


def _tos(cells: list) -> list:
    values = []
    for cell in map(str.strip, cells):
        try:
            values.append(str(int(_number(cell))) if cell else ABSENT)
        except (ValueError, OverflowError):
            values.append(None)
    return values


# column -> (canonical cell, the values of a list of cells, None for a
# cell that parse_flow_record would reject)
_STRING_CELLS = {
    "proto": ("Proto", lambda cells: [c.strip().lower() for c in cells]),
    "src_addr": ("SrcAddr", lambda cells: [c.strip() or None
                                           for c in cells]),
    "sport": ("Sport", lambda cells: [c.strip() or ABSENT for c in cells]),
    "dir": ("Dir", lambda cells: list(map(str.strip, cells))),
    "dst_addr": ("DstAddr", lambda cells: [c.strip() or None
                                           for c in cells]),
    "dport": ("Dport", lambda cells: [c.strip() or ABSENT for c in cells]),
    "state": ("State", lambda cells: [c.strip() or ABSENT for c in cells]),
    "s_tos": ("sTos", _tos),
    "d_tos": ("dTos", _tos),
    "label": ("Label", lambda cells: [
        c if not c or c.startswith("flow=") else None
        for c in map(str.strip, cells)]),
}


def _decode_columns(cells: dict, builder: _TableBuilder) -> tuple:
    """The columns of rows given as canonical column -> cells, and which
    rows they prove valid. A valid row's values are those
    parse_flow_record gives; the other rows' values are garbage."""
    t_us, valid = _timestamps(cells["StartTime"])
    out = {"t_us": t_us, "dur": _floats(cells["Dur"])}
    valid &= np.isfinite(out["dur"]) & (out["dur"] >= 0)
    for name, column, least in (("tot_pkts", "TotPkts", 1),
                                ("tot_bytes", "TotBytes", 0),
                                ("src_bytes", "SrcBytes", 0)):
        # + 0.0 turns the -0.0 of trunc(-0.5) into int()'s 0
        out[name] = np.trunc(_floats(cells[column])) + 0.0
        valid &= np.isfinite(out[name]) & (out[name] >= least)
    valid &= out["src_bytes"] <= out["tot_bytes"]
    for name, (column, decode) in _STRING_CELLS.items():
        out[name] = builder.cell_ids(name, cells[column], decode)
        valid &= out[name] >= 0
    for column in ("sTos", "dTos"):  # ABSENT is no number, but a value
        if not "".join(cells[column]).isascii():
            valid &= np.array([c.strip() != ABSENT for c in cells[column]])
    return out, valid


# Stands in for a row the csv module could not read; shorter than any row
# holding the canonical columns.
_UNREADABLE = ["<unreadable>"]


def _chunk(reader) -> list:
    """The next CHUNK_ROWS rows of reader, fewer at its end, with
    _UNREADABLE for each csv.Error. The reader resumes at the line after
    the error; with the default dialect and Python 3.11 or later, the only
    such error is a cell longer than csv.field_size_limit()."""
    rows = []
    while True:
        try:
            rows.extend(islice(reader, CHUNK_ROWS - len(rows)))
            return rows
        except csv.Error:  # rows holds the rows before the error
            rows.append(_UNREADABLE)


def _load_chunk(rows: list, first_row: int, header_map: dict,
                builder: _TableBuilder, stats: ParseStats, name: str):
    """Adds the accepted flows of up to CHUNK_ROWS consecutive data rows,
    the first numbered first_row, to builder, and tallies the rest."""
    n = len(rows)
    columns = {key: np.zeros(n, _DTYPES.get(key, np.int32))
               for key in _NUMERIC + CATEGORICAL_SUMMARY_COLUMNS}
    accepted = np.zeros(n, bool)
    width = np.fromiter(map(len, rows), np.intp, n)
    whole = np.flatnonzero(width > max(header_map.values()))
    if len(whole):
        # every row at `whole` holds each canonical column: zip cuts the
        # cells by header position there
        cells = list(zip(*[rows[i] for i in whole.tolist()]))
        decoded, valid = _decode_columns(
            {column: cells[i] for column, i in header_map.items()}, builder)
        for key, values in decoded.items():
            columns[key][whole] = values
        accepted[whole[valid]] = True

    positions, records = [], []
    for i in np.flatnonzero(~accepted).tolist():
        row = rows[i]
        if not row:
            continue
        try:
            if row is _UNREADABLE:
                raise FlowParseError("cell_too_long")
            records.append(parse_flow_record(row, header_map))
            positions.append(i)
        except FlowParseError as exc:
            stats.record_rejection(first_row + i, exc.reason)
            if stats.rejected <= _MAX_REJECTION_SAMPLES:
                logger.warning("%s row %d rejected (%s)",
                               name, first_row + i, exc.reason)
    if records:
        for key, values in builder.record_columns(records).items():
            columns[key][positions] = values
        accepted[positions] = True
    stats.accepted += int(accepted.sum())
    builder.chunks.append({key: values[accepted]
                           for key, values in columns.items()})


def load_scenario(path) -> FlowTable:
    """Parse a binetflow CSV file, read as UTF-8, into a FlowTable.

    Rows are decoded CHUNK_ROWS at a time, column by column; a row that
    this does not prove valid goes through parse_flow_record, so values,
    reason codes and row numbers are those of parsing row by row.

    Fatal on a missing file or a header lacking any canonical column;
    malformed data rows are counted and skipped.
    """
    path = Path(path)
    stats = ParseStats()
    builder = _TableBuilder()
    with path.open(newline="", encoding="utf-8",
                   errors="surrogateescape") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row")
        except csv.Error as exc:
            raise ValueError(f"{path}: unreadable header row ({exc})")
        header_map = build_header_map(header)
        first_row = 1
        while chunk := _chunk(reader):
            _load_chunk(chunk, first_row, header_map, builder, stats,
                        path.name)
            first_row += len(chunk)
    return builder.table(str(path), stats)


def write_flow_csv(table: FlowTable, path):
    """The table as a UTF-8 binetflow CSV, one row per flow in table
    order; an ABSENT optional value is written as an empty cell."""
    def text(name: str) -> list:
        column = getattr(table, name)
        values = column.values
        if name in ("sport", "dport", "state", "s_tos", "d_tos"):
            values = ["" if v == ABSENT else v for v in values]
        return list(map(values.__getitem__, column.codes.tolist()))

    def integers(values: np.ndarray) -> list:
        return [str(int(v)) for v in values.tolist()]

    cells = [
        list(map(format_timestamp, table.start_times())),
        list(map(repr, table.dur.tolist())),
        *map(text, ("proto", "src_addr", "sport", "dir", "dst_addr",
                    "dport", "state", "s_tos", "d_tos")),
        *map(integers, (table.tot_pkts, table.tot_bytes, table.src_bytes)),
        text("label"),
    ]
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CANONICAL_COLUMNS)
        writer.writerows(zip(*cells))


def summarize(table: FlowTable, top_k: int = 10) -> SummaryStats:
    """Per-column summary statistics for a parsed flow table.

    Numeric columns get min/max/mean/std/median/3rd-quartile (population
    std, exact order statistics); categorical columns get distinct counts
    and a top-k frequency list. An empty table yields absent numeric stats.
    """
    n = len(table)
    numeric = {}
    for column in NUMERIC_SUMMARY_COLUMNS:
        if n == 0:
            numeric[column] = None
            continue
        values = getattr(table, column)
        numeric[column] = NumericStats(
            min=float(values.min()),
            max=float(values.max()),
            mean=float(values.mean()),
            std=float(values.std()),
            median=float(np.median(values)),
            q3=float(np.percentile(values, 75)),
        )

    categorical = {}
    for column in CATEGORICAL_SUMMARY_COLUMNS:
        strings = getattr(table, column)
        counts = zip(strings.values, strings.counts().tolist())
        top = sorted(counts, key=lambda kv: (-kv[1], kv[0]))[:top_k]
        categorical[column] = CategoricalStats(distinct=len(strings.values),
                                               top=top)

    return SummaryStats(row_count=n, numeric=numeric, categorical=categorical)
