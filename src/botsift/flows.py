"""Parsing and summary statistics for bidirectional NetFlow CSV captures.

Input files follow the binetflow convention: a comma-separated header row
naming at least the 15 canonical columns (StartTime, Dur, Proto, SrcAddr,
Sport, Dir, DstAddr, Dport, State, sTos, dTos, TotPkts, TotBytes, SrcBytes,
Label), then one flow per line. Parsing is total: every data row either
becomes a validated FlowRecord or a counted rejection with a reason code.
"""

from __future__ import annotations

import csv
import logging
import sys
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterable, Optional, Sequence

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


@dataclass
class FlowTable:
    """Immutable-after-load sequence of parsed flows plus parse accounting."""

    records: list
    source_path: str
    parse_stats: ParseStats

    def __len__(self):
        return len(self.records)


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


def parse_timestamp(text: str) -> datetime:
    """Parse 'YYYY/MM/DD HH:MM:SS[.fraction]' (naive, no timezone).

    Any fractional-second width is accepted; digits beyond microseconds are
    truncated.
    """
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
    return ts.strftime("%Y/%m/%d %H:%M:%S.%f")


def _optional_token(cell: str) -> Optional[str]:
    cell = cell.strip()
    return sys.intern(cell) if cell else None


def _optional_int(cell: str, reason: str) -> Optional[int]:
    cell = cell.strip()
    if not cell:
        return None
    try:
        return int(float(cell))
    except (ValueError, OverflowError) as exc:
        raise FlowParseError(reason, cell) from exc


def _count(cell: str, name: str) -> int:
    try:
        value = int(float(cell))
    except (ValueError, TypeError, OverflowError) as exc:
        raise FlowParseError(f"bad_{name}", cell) from exc
    if value < 0:
        raise FlowParseError(f"negative_{name}", cell)
    return value


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

    start_time = parse_timestamp(cells["StartTime"])

    try:
        dur = float(cells["Dur"])
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


def load_scenario(path) -> FlowTable:
    """Stream-parse a binetflow CSV file into a FlowTable.

    Fatal on a missing file or a header lacking any canonical column;
    malformed data rows are counted and skipped.
    """
    path = Path(path)
    records = []
    stats = ParseStats()
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row")
        header_map = build_header_map(header)
        for row_number, row in enumerate(reader, start=1):
            if not row:
                continue
            try:
                records.append(parse_flow_record(row, header_map))
                stats.accepted += 1
            except FlowParseError as exc:
                stats.record_rejection(row_number, exc.reason)
                if stats.rejected <= _MAX_REJECTION_SAMPLES:
                    logger.warning("%s row %d rejected (%s)",
                                   path.name, row_number, exc.reason)
    return FlowTable(records=records, source_path=str(path), parse_stats=stats)


def serialize_flow_record(record: FlowRecord) -> list:
    """Render a FlowRecord back to its 15 canonical CSV cells."""
    return [
        format_timestamp(record.start_time),
        repr(record.dur),
        record.proto,
        record.src_addr,
        record.sport or "",
        record.dir,
        record.dst_addr,
        record.dport or "",
        record.state or "",
        "" if record.s_tos is None else str(record.s_tos),
        "" if record.d_tos is None else str(record.d_tos),
        str(record.tot_pkts),
        str(record.tot_bytes),
        str(record.src_bytes),
        record.label,
    ]


def write_flow_csv(records: Iterable[FlowRecord], path):
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CANONICAL_COLUMNS)
        for record in records:
            writer.writerow(serialize_flow_record(record))


def _numeric_values(table: FlowTable, column: str) -> np.ndarray:
    return np.fromiter((getattr(r, column) for r in table.records),
                       dtype=float, count=len(table.records))


def summarize(table: FlowTable, top_k: int = 10) -> SummaryStats:
    """Per-column summary statistics for a parsed flow table.

    Numeric columns get min/max/mean/std/median/3rd-quartile (population
    std, exact order statistics); categorical columns get distinct counts
    and a top-k frequency list. An empty table yields absent numeric stats.
    """
    n = len(table.records)
    numeric = {}
    for column in NUMERIC_SUMMARY_COLUMNS:
        if n == 0:
            numeric[column] = None
            continue
        values = _numeric_values(table, column)
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
        counts = Counter(
            ABSENT if (v := getattr(r, column)) is None else str(v)
            for r in table.records
        )
        top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
        categorical[column] = CategoricalStats(distinct=len(counts), top=top)

    return SummaryStats(row_count=n, numeric=numeric, categorical=categorical)
