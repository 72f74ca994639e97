"""Plain-text table rendering and the shared report schema.

Every benchmark prints the rows/series its paper table reports, side by
side with the paper's published values.  This module provides the small
formatting helpers they share, so the output stays uniform, plus the
one ``to_dict()`` schema every report type
(:class:`~repro.host.runtime.RunReport`,
:class:`~repro.service.ServiceReport`,
:class:`~repro.pool.PoolReport`) serialises through, so
``repro.summary`` and the BENCH emitters never special-case a report
type again.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

#: The keys every report's ``to_dict()`` payload carries, whatever the
#: report type: ``kind`` names the report, ``calls`` counts executed
#: calls, ``cycles`` is the modeled engine-busy time expressed in PCI
#: clock cycles, ``cache`` holds the residency-cache counters (empty
#: when the layer has none), ``shed`` counts work dropped before
#: execution.
REPORT_SCHEMA_KEYS = ("kind", "calls", "cycles", "cache", "shed")


def base_report_dict(kind: str, *, calls: int, cycles: float,
                     cache: Optional[Mapping[str, int]] = None,
                     shed: int = 0, **extra) -> Dict[str, object]:
    """Build one schema-conforming report dictionary.

    The shared keys are pinned by :data:`REPORT_SCHEMA_KEYS`; report
    types append their own figures through ``extra`` but may not shadow
    a shared key (that would silently fork the schema).
    """
    payload: Dict[str, object] = {
        "kind": kind,
        "calls": int(calls),
        "cycles": float(cycles),
        "cache": dict(cache) if cache else {},
        "shed": int(shed),
    }
    clashes = set(payload) & set(extra)
    if clashes:
        raise ValueError(f"extra report keys shadow the shared schema: "
                         f"{sorted(clashes)}")
    payload.update(extra)
    return payload


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: Optional[str] = None) -> str:
    """Render an aligned plain-text table.

    Numbers are right-aligned, text left-aligned; floats print with two
    decimals unless they are integral.
    """
    def cell(value) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            if value == int(value) and abs(value) < 1e15:
                return str(int(value))
            return f"{value:.2f}"
        return str(value)

    grid: List[List[str]] = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in grid:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells for {len(headers)} headers")
        for index, text in enumerate(row):
            widths[index] = max(widths[index], len(text))

    def is_numeric_column(index: int) -> bool:
        return all(_numeric(row[index]) for row in grid) and grid

    def render_row(cells: Sequence[str]) -> str:
        parts = []
        for index, text in enumerate(cells):
            if is_numeric_column(index):
                parts.append(text.rjust(widths[index]))
            else:
                parts.append(text.ljust(widths[index]))
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(headers))
    lines.append("  ".join("-" * width for width in widths))
    for row in grid:
        lines.append(render_row(row))
    return "\n".join(lines)


def _numeric(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def format_seconds(seconds: float) -> str:
    """Format wall time the way Table 3 does: ``M'SS''``."""
    total = int(round(seconds))
    minutes, secs = divmod(total, 60)
    return f"{minutes}'{secs:02d}''"


def ratio_line(label: str, measured: float, paper: float) -> str:
    """One paper-vs-measured comparison line with the deviation factor."""
    if paper == 0:
        return f"{label}: measured={measured:.3g} paper={paper:.3g}"
    factor = measured / paper
    return (f"{label}: measured={measured:.3g} paper={paper:.3g} "
            f"(x{factor:.2f} of paper)")


def call_log_rows(log) -> List[dict]:
    """Flatten an AddressLib :class:`~repro.addresslib.library.CallLog`
    into analysis-friendly dictionaries (one per call)."""
    rows = []
    for index, record in enumerate(log.records):
        row = {
            "index": index,
            "mode": record.mode.value,
            "op": record.op_name,
            "channels": record.channels.name,
            "format": record.format_name,
            "pixels": record.pixels,
            "instructions": (record.profile.total_instructions
                             if record.profile is not None else ""),
        }
        for key, value in sorted(record.extra.items()):
            row[key] = value
        rows.append(row)
    return rows


def write_call_log_csv(path, log) -> int:
    """Dump a call log as CSV (column set = union over calls); returns
    the number of rows written."""
    import csv
    rows = call_log_rows(log)
    fieldnames: List[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames,
                                restval="")
        writer.writeheader()
        writer.writerows(rows)
    return len(rows)
