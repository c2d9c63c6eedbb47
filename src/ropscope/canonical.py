"""The canonical text formats. Every JSON and CSV text ropscope writes is made
here, so equal inputs give byte-identical reports, traces and files."""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Sequence


# json.dumps builds a new encoder on every call made with options, so the
# one encoder these options need is built once.
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
)


def dumps(obj) -> str:
    """`obj` as JSON with sorted keys and no whitespace. A NaN or infinite
    float raises ValueError: JSON has no token for it."""
    return _ENCODER.encode(obj)


def csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """A CSV table with "\\n" line endings: the header, then one line per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
