"""Parsing and summary statistics for bidirectional NetFlow CSV captures.

Input files follow the binetflow convention: a comma-separated header row
naming at least the 15 canonical columns (StartTime, Dur, Proto, SrcAddr,
Sport, Dir, DstAddr, Dport, State, sTos, dTos, TotPkts, TotBytes, SrcBytes,
Label), then one flow per line. Parsing is total: every data row either
becomes a flow of the columnar FlowTable or a counted rejection with a
reason code.

`load_scenario` decodes each chunk of rows one column at a time: the
timestamp and number columns with numpy, the text columns by the rules of
`_CELL_RULES`. This column decoder is the only producer of flow values,
and it names each row it rejects itself, by the first of its checks that
the row fails.
"""

from __future__ import annotations

import csv
import logging
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from itertools import compress, count, islice, repeat
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
    """A cell that parse_timestamp refuses. Carries the row's reason
    code."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


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

    @classmethod
    def of(cls, values: Sequence[str]) -> "StringColumn":
        """The column holding values, in order."""
        distinct = sorted(set(values))
        position = dict(zip(distinct, count()))
        codes = np.fromiter(map(position.__getitem__, values), np.int32,
                            len(values))
        return cls(tuple(distinct), codes)

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


def _required(cell: str) -> Optional[str]:
    return cell.strip() or None


def _optional(cell: str) -> str:
    return cell.strip() or ABSENT


def _label(cell: str) -> Optional[str]:
    label = cell.strip()
    return None if label and not label.startswith("flow=") else label


def _type_of_service(cell: str) -> Optional[str]:
    """The text of the ToS byte's integer value, ABSENT for an empty
    cell."""
    text = cell.strip()
    if not text:
        return ABSENT
    if not _is_number_text(text):
        return None
    try:
        return str(int(float(text)))
    except (ValueError, OverflowError):
        return None


# Per text column: the FlowTable column it fills, the reason code of a row
# whose cell the column refuses, and the rule, which gives a cell's
# FlowTable string or None where it refuses the cell. _decode_columns
# applies each rule once to each distinct cell of a load, and refuses a
# cell holding bytes that were not UTF-8 as well: the only cells refused
# in the columns whose rule refuses none.
_CELL_RULES = (
    ("SrcAddr", "src_addr", "missing_src_addr", _required),
    ("DstAddr", "dst_addr", "missing_dst_addr", _required),
    ("Label", "label", "bad_label", _label),
    ("sTos", "s_tos", "bad_tos", _type_of_service),
    ("dTos", "d_tos", "bad_tos", _type_of_service),
    ("Proto", "proto", "bad_encoding", lambda cell: cell.strip().lower()),
    ("Sport", "sport", "bad_encoding", _optional),
    ("Dir", "dir", "bad_encoding", str.strip),
    ("Dport", "dport", "bad_encoding", _optional),
    ("State", "state", "bad_encoding", _optional),
)


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


_NUMERIC = ("t_us", "dur", "tot_pkts", "tot_bytes", "src_bytes")
_DTYPES = dict(zip(_NUMERIC, (np.int64, *[np.float64] * 4)))


class _TableBuilder:
    """Collects accepted flows chunk by chunk. A string column's value gets
    as id the position of its first cell among the distinct cells met;
    once all chunks are in, the values of accepted flows are sorted and
    the ids renumbered."""

    def __init__(self):
        self.chunks = []
        # per string column: each cell text decoded so far to the id of
        # its value; and each value to its id, None (a refused cell) to -1
        self.ids = {name: {} for name in CATEGORICAL_SUMMARY_COLUMNS}
        self.value_ids = {name: {None: -1}
                          for name in CATEGORICAL_SUMMARY_COLUMNS}

    def cell_ids(self, column: str, cells: Sequence[str], rule):
        """Per cell, the id of its value under rule, or -1 where the rule
        refuses the cell or it is not UTF-8. A cell text is decoded once
        per load."""
        ids, value_ids = self.ids[column], self.value_ids[column]
        codes = np.fromiter(map(ids.get, cells, repeat(-2)), np.int32,
                            len(cells))
        unseen = codes == -2
        if unseen.any():
            cells = list(compress(cells, unseen.tolist()))
            new = list(dict.fromkeys(cells))
            values = list(map(rule, new))
            if not "".join(new).isascii():
                values = [v if _is_utf8(c) else None
                          for c, v in zip(new, values)]
            ids.update(zip(new, map(value_ids.setdefault, values,
                                    count(len(ids)))))
            codes[unseen] = np.fromiter(map(ids.__getitem__, cells),
                                        np.int32, len(cells))
        return codes

    def table(self, source_path, parse_stats) -> FlowTable:
        columns = {}
        for name in _NUMERIC + CATEGORICAL_SUMMARY_COLUMNS:
            parts = [chunk.pop(name) for chunk in self.chunks]
            columns[name] = (np.concatenate(parts) if parts
                             else np.empty(0, _DTYPES.get(name, np.int32)))
        for name, value_ids in self.value_ids.items():
            del value_ids[None]
            # a value met only in rejected rows has no flow
            used = np.bincount(columns[name], minlength=len(self.ids[name]))
            id_of = np.fromiter(value_ids.values(), np.intp, len(value_ids))
            values = sorted(compress(value_ids, used[id_of].tolist()))
            rank = np.empty(len(used), np.int32)
            rank[list(map(value_ids.__getitem__, values))] = np.arange(
                len(values))
            columns[name] = StringColumn(tuple(values), rank[columns[name]])
        return FlowTable(**columns, source_path=source_path,
                         parse_stats=parse_stats)


# The fixed-width timestamp the column decoder reads with numpy; any
# other cell is read by parse_timestamp on its own.
_STAMP = "0000/00/00 00:00:00.000000"
_STAMP_SEPARATORS = [i for i, c in enumerate(_STAMP) if c != "0"]
_STAMP_DIGITS = [i for i, c in enumerate(_STAMP) if c == "0"]


def _stamp_field(digits: np.ndarray, lo: int, hi: int) -> np.ndarray:
    return digits[:, lo:hi].astype(np.int64) @ 10 ** np.arange(hi - lo - 1,
                                                               -1, -1)


def _timestamps(cells: Sequence[str]) -> tuple:
    """(µs since 1970-01-01, valid): each cell as parse_timestamp reads
    it, and whether it accepts the cell; a cell it refuses reads
    garbage. Cells of the form _STAMP are decoded together."""
    n = len(cells)
    valid = np.fromiter(map(len, cells), np.intp, n) == len(_STAMP)
    stamps = cells
    if not valid.all():
        stamps = [c if ok else _STAMP for c, ok in zip(cells, valid.tolist())]
    # 'replace' keeps one byte per character, so a non-ASCII cell stays
    # 26 bytes wide and fails the character checks
    raw = np.frombuffer("".join(stamps).encode("ascii", "replace"),
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
    t_us = seconds * 1_000_000 + _stamp_field(digits, 20, 26)
    for i in np.flatnonzero(~valid).tolist():
        try:
            t_us[i] = (parse_timestamp(cells[i]) - _EPOCH) // _ONE_US
        except FlowParseError:
            continue
        valid[i] = True
    return t_us, valid


def _floats(cells: Sequence[str]) -> np.ndarray:
    """float() of each cell, NaN where it refuses the cell or where
    _is_number_text does: no column read this way accepts a NaN."""
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


def _decode_columns(cells: dict, builder: _TableBuilder) -> tuple:
    """The columns of rows given as canonical column -> cells, and per row
    the reason code of the first check it fails, "" for a valid row. A
    valid row's values are those the rules give; the other rows' values
    are garbage."""
    t_us, stamped = _timestamps(cells["StartTime"])
    out = {"t_us": t_us, "dur": _floats(cells["Dur"])}
    # (mask of the rows failing it, reason code), in order
    checks = [(~stamped, "bad_timestamp"),
              (~np.isfinite(out["dur"]), "bad_duration"),
              (out["dur"] < 0, "negative_duration")]
    refused = {}  # text column -> (mask of the rows it refuses, reason)
    for column, name, reason, rule in _CELL_RULES:
        out[name] = builder.cell_ids(name, cells[column], rule)
        refused[column] = (out[name] < 0, reason)
    checks += [refused.pop("SrcAddr"), refused.pop("DstAddr")]
    for name, column, noun, least in (("tot_pkts", "TotPkts", "packet", 1),
                                      ("tot_bytes", "TotBytes", "byte", 0),
                                      ("src_bytes", "SrcBytes", "byte", 0)):
        # + 0.0 turns the -0.0 of trunc(-0.5) into int()'s 0
        out[name] = np.trunc(_floats(cells[column])) + 0.0
        checks += [(~np.isfinite(out[name]), f"bad_{noun}_count"),
                   (out[name] < 0, f"negative_{noun}_count"),
                   (out[name] < least, f"bad_{noun}_count")]
    checks += [(out["src_bytes"] > out["tot_bytes"],
                "src_bytes_exceed_total"),
               refused.pop("Label"), refused.pop("sTos"), refused.pop("dTos"),
               *refused.values()]
    masks, reasons = zip(*checks)
    reasons = np.select(masks, reasons, "")
    # bad_encoding comes first. A cell that is not UTF-8 fails a check of
    # its column: a number or timestamp check refuses non-ASCII text, and
    # cell_ids refuses such a text cell; so only failing rows need a look.
    for i in np.flatnonzero(reasons != "").tolist():
        if not _is_utf8("".join(column[i] for column in cells.values())):
            reasons[i] = "bad_encoding"
    return out, reasons


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
    the first numbered first_row, to builder, and tallies the rest. A
    blank line is no row."""
    last = max(header_map.values())
    width = np.fromiter(map(len, rows), np.intp, len(rows))
    short = np.flatnonzero((width > 0) & (width <= last))
    rejected = {i: "cell_too_long" if rows[i] is _UNREADABLE else "short_row"
                for i in short.tolist()}  # row index -> reason code
    whole = np.flatnonzero(width > last)
    if len(whole):
        # every row at `whole` holds each canonical column: zip cuts the
        # cells by header position there
        cells = list(zip(*[rows[i] for i in whole.tolist()]))
        decoded, reasons = _decode_columns(
            {column: cells[i] for column, i in header_map.items()}, builder)
        valid = reasons == ""
        builder.chunks.append({key: values[valid]
                               for key, values in decoded.items()})
        stats.accepted += int(valid.sum())
        rejected.update(zip(whole[~valid].tolist(),
                            reasons[~valid].tolist()))
    for i in sorted(rejected):
        stats.record_rejection(first_row + i, rejected[i])
        if stats.rejected <= _MAX_REJECTION_SAMPLES:
            logger.warning("%s row %d rejected (%s)",
                           name, first_row + i, rejected[i])


def load_scenario(path) -> FlowTable:
    """Parse a binetflow CSV file, read as UTF-8, into a FlowTable.

    Rows are decoded CHUNK_ROWS at a time, column by column; a rejected
    row is counted under its reason code and its 1-based data row
    number.

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
