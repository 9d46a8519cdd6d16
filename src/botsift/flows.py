"""Parsing and summary statistics for bidirectional NetFlow CSV captures.

Input files follow the binetflow convention: a comma-separated header row
naming at least the 15 canonical columns (StartTime, Dur, Proto, SrcAddr,
Sport, Dir, DstAddr, Dport, State, sTos, dTos, TotPkts, TotBytes, SrcBytes,
Label), then one flow per line. Parsing is total: every data row either
becomes a flow of the columnar FlowTable or a counted rejection with a
reason code.

`read_csv` opens every CSV file botsift reads, and gives its rows in
chunks that name the file line a row starts on. `load_scenario` decodes a
chunk one column at a time, timestamps and numbers with numpy and text by
`_CELL_RULES`: the only producer of flow values, it gives a rejected row
the reason code of the first check the row fails.
"""

from __future__ import annotations

import csv
import logging
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from itertools import chain, compress, count, islice, repeat
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

# Rows per chunk of read_csv, decoded together: enough to amortize a
# chunk's numpy calls, few enough that its cells take a few MiB.
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
    # (file line the row starts on, reason) of the first few rejections
    samples: list = field(default_factory=list)


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


@dataclass
class FlowTable:
    """Parsed flows, one array per column, plus parse accounting.

    `t_us` holds int64 microseconds since 1970-01-01 (naive), the
    `micros` of each start time: float64 epoch seconds cannot hold every
    microsecond of a present-day time. `dur` and the three counts
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

    def offsets(self) -> np.ndarray:
        """(start - earliest start).total_seconds() of each flow of a
        non-empty table, bit for bit: the microsecond difference over
        1e6, which is exact while the difference fits in 53 bits, and
        done on Python ints beyond that."""
        delta = self.t_us - self.t_us.min()
        seconds = delta / 1e6
        far = np.flatnonzero(delta > 2**53)
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


def micros(ts: datetime) -> int:
    """A naive datetime as microseconds since 1970-01-01."""
    return int(np.datetime64(ts, "us").astype(np.int64))


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
    if not cell.strip():
        return ABSENT
    (value,), (refused,) = _numbers([cell], float)
    return None if refused or not np.isfinite(value) else str(int(value))


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
    """Collects accepted flows chunk by chunk. Each distinct cell of a
    string column gets a provisional id, its position among the distinct
    cells met; once all chunks are in, the values of accepted flows are
    sorted, cells of equal value merged and the ids renumbered."""

    def __init__(self):
        self.chunks = []
        # per string column: each cell text decoded so far to its
        # provisional id, -1 if refused; and each id's value, None if refused
        self.ids = {name: {} for name in CATEGORICAL_SUMMARY_COLUMNS}
        self.values = {name: [] for name in CATEGORICAL_SUMMARY_COLUMNS}

    def cell_ids(self, column: str, cells: Sequence[str], rule):
        """Per cell, its provisional id, or -1 where the rule refuses the
        cell or it is not UTF-8. A cell text is decoded once per load."""
        ids, known = self.ids[column], self.values[column]
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
            ids.update((c, -1 if v is None else i) for i, (c, v)
                       in enumerate(zip(new, values), len(known)))
            known.extend(values)
            codes[unseen] = np.fromiter(map(ids.__getitem__, cells),
                                        np.int32, len(cells))
        return codes

    def table(self, source_path, parse_stats) -> FlowTable:
        columns = {}
        for name in _NUMERIC + CATEGORICAL_SUMMARY_COLUMNS:
            parts = [chunk.pop(name) for chunk in self.chunks]
            columns[name] = (np.concatenate(parts) if parts
                             else np.empty(0, _DTYPES.get(name, np.int32)))
        for name, values in self.values.items():
            # a cell met only in rejected rows has no flow
            used = np.bincount(columns[name], minlength=len(values)) > 0
            merged = StringColumn.of(list(compress(values, used.tolist())))
            rank = np.empty(len(values), np.int32)
            rank[used] = merged.codes
            columns[name] = StringColumn(merged.values, rank[columns[name]])
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
            t_us[i] = micros(parse_timestamp(cells[i]))
        except FlowParseError:
            continue
        valid[i] = True
    return t_us, valid


def _numbers(cells: Sequence[str], convert) -> tuple:
    """(values, refused): the list of convert() of each cell, and per cell
    whether convert or _is_number_text refuses it, its value then 0. Every
    number cell of a capture or a feature file is read here."""
    values, refused, rest = [], np.zeros(len(cells), bool), iter(cells)
    while len(values) < len(cells):
        try:
            values.extend(map(convert, rest))
        except ValueError:  # rest has moved past the refused cell
            refused[len(values)] = True
            values.append(0)
    if not _is_number_text("".join(cells)):
        refused |= [not _is_number_text(c) for c in cells]
    return values, refused


def _decode_columns(cells: dict, builder: _TableBuilder) -> tuple:
    """The columns of rows given as canonical column -> cells, and per row
    the reason code of the first check it fails, "" for a valid row. A
    valid row's values are those the rules give; the other rows' values
    are garbage."""
    t_us, stamped = _timestamps(cells["StartTime"])
    dur, unread = _numbers(cells["Dur"], float)
    out = {"t_us": t_us, "dur": np.array(dur, np.float64)}
    # (mask of the rows failing it, reason code), in order
    checks = [(~stamped, "bad_timestamp"),
              (unread | ~np.isfinite(out["dur"]), "bad_duration"),
              (out["dur"] < 0, "negative_duration")]
    refused = {}  # text column -> (mask of the rows it refuses, reason)
    for column, name, reason, rule in _CELL_RULES:
        out[name] = builder.cell_ids(name, cells[column], rule)
        refused[column] = (out[name] < 0, reason)
    checks += [refused.pop("SrcAddr"), refused.pop("DstAddr")]
    for name, column, noun, least in (("tot_pkts", "TotPkts", "packet", 1),
                                      ("tot_bytes", "TotBytes", "byte", 0),
                                      ("src_bytes", "SrcBytes", "byte", 0)):
        counts, unread = _numbers(cells[column], float)
        # + 0.0 turns the -0.0 of trunc(-0.5) into int()'s 0
        out[name] = np.trunc(np.array(counts, np.float64)) + 0.0
        checks += [(unread | ~np.isfinite(out[name]), f"bad_{noun}_count"),
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


class _Chunk(list):
    """The next CHUNK_ROWS rows of a csv reader, fewer at its end, after
    `skip` file lines it does not see, with _UNREADABLE for each csv.Error:
    on Python 3.11 or later only a cell longer than csv.field_size_limit()
    raises one, and the reader resumes at the next line."""

    def __init__(self, reader, skip: int):
        self.before = skip + reader.line_num
        self.ends = {}  # unreadable row's index -> the line it ends on
        while True:
            try:
                self.extend(islice(reader, CHUNK_ROWS - len(self)))
                break
            except csv.Error:
                self.ends[len(self)] = skip + reader.line_num
                self.append(_UNREADABLE)
        # a line a row, as reader.line_num shows: no line needs a count
        lines = range(self.before + 1, skip + reader.line_num + 1)
        self.starts = lines if len(lines) == len(self) else None

    def line_of(self, i: int) -> int:
        """The file line on which row i starts. A row ends a line, and its
        cells may hold line breaks; a chunk's lines are counted once."""
        if self.starts is None:
            line, self.starts = self.before, []
            for j, row in enumerate(self):
                self.starts.append(line + 1)
                text = "\0".join(row)
                line = self.ends.get(j, line + 1 + text.count("\n")
                                     + text.count("\r") - text.count("\r\n"))
        return self.starts[i]


def read_csv(path):
    """Opens a capture or feature file as UTF-8, a byte that is not UTF-8
    read as a lone surrogate. Yields the text after '# scenario=' on a
    first line starting so (else None) with the header row, then each
    _Chunk of rows. An empty file or an unreadable header is a ValueError."""
    with Path(path).open(newline="", encoding="utf-8",
                         errors="surrogateescape") as handle:
        first = handle.readline()
        skip = first.startswith("# scenario=")
        reader = csv.reader(chain([] if skip else [first], handle))
        try:
            header = next(reader)
        except (StopIteration, csv.Error):
            raise ValueError(f"{path}: no readable header row") from None
        yield first.partition("=")[2].rstrip("\r\n") if skip else None, header
        while chunk := _Chunk(reader, skip):
            yield chunk


def _load_chunk(rows: _Chunk, header_map: dict, builder: _TableBuilder,
                stats: ParseStats, name: str):
    """Adds a chunk's accepted flows to builder and tallies the rest."""
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
    stats.rejected += len(rejected)
    stats.reason_counts.update(rejected.values())
    for i in sorted(rejected)[:_MAX_REJECTION_SAMPLES - len(stats.samples)]:
        stats.samples.append((rows.line_of(i), rejected[i]))
        logger.warning("%s line %d rejected (%s)", name, *stats.samples[-1])


def load_scenario(path) -> FlowTable:
    """Parse a binetflow CSV file, read by read_csv, into a FlowTable; a
    first line starting '# scenario=', as in a feature file, is ignored.
    A rejected row is counted under its reason code, and the first few are
    sampled and logged by the file line they start on. Fatal on a missing
    or empty file and on a header unreadable or lacking a canonical column."""
    path = Path(path)
    stats, builder = ParseStats(), _TableBuilder()
    chunks = read_csv(path)
    header_map = build_header_map(next(chunks)[1])
    while rows := next(chunks, None):  # no chunk is kept through the table
        _load_chunk(rows, header_map, builder, stats, path.name)
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

    # numpy writes 'YYYY-MM-DDTHH:MM:SS.ffffff', a year below 1000 padded
    stamps = np.datetime_as_string(table.t_us.astype("M8[us]")).tolist()
    cells = [
        [s.replace("-", "/").replace("T", " ") for s in stamps],
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
        counts = strings.counts()  # sorted values: ties go to the smaller
        top = [(strings.values[i], int(counts[i]))
               for i in np.argsort(-counts, kind="stable")[:top_k]]
        categorical[column] = CategoricalStats(distinct=len(strings.values),
                                               top=top)

    return SummaryStats(row_count=n, numeric=numeric, categorical=categorical)
