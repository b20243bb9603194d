"""Deterministic artifact serialization shared by the pipeline stages.

Every number is written with fixed six-decimal formatting and every JSON
document with sorted keys, so identical inputs produce byte-identical
output files and golden-file comparison stays meaningful.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

# The interpreter's own SHA-256 and BLAKE2b, which give the digests
# ``hashlib`` gives. Importing ``hashlib`` loads OpenSSL's libcrypto: a bare
# interpreter that imports it peaks at 17.2 MB resident, one that imports
# only ``_sha256`` at 13.6 MB, and the load takes about 4.5 ms. That is a
# sixth of the peak of an audit whose files are all small. OpenSSL's
# SHA-256 is faster on a large file: 4.5 against 35.5 ms for 4.96 MB on
# an x86-64 Xeon with SHA-NI. The built-in path costs about 6.3 ms more
# per MB, so it breaks even with the load at about 0.7 MB, and
# ``sha256_file`` loads OpenSSL for a file of at least ``LARGE_FILE``
# bytes. A build without the built-in modules uses hashlib.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256
try:
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

LARGE_FILE = 1 << 20


def fmt(value) -> str:
    """CSV cell formatting: floats at six decimals, everything else as-is."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            return ""
        return f"{value:.6f}"
    if value is None:
        return ""
    return str(value)


def round6(obj):
    """Recursively round floats for JSON emission; non-finite becomes None."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return round(obj, 6)
    if isinstance(obj, dict):
        return {k: round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round6(v) for v in obj]
    return obj


def dump_json(obj, path) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(round6(obj), fh, ensure_ascii=False, sort_keys=True,
                  indent=2)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def write_jsonl(path, records) -> None:
    """One JSON object per line, keys sorted, non-ASCII text kept as is.

    One encoder serves the whole file; each line is what ``json.dumps``
    with the same two arguments gives.
    """
    encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(encode(record))
            fh.write("\n")


def read_rows(path, what: str, header: str | None, ncols: int):
    """Data rows of an input CSV file as ``(row_no, row)``, numbered from 1
    over every CSV row.

    Blank rows, rows whose first cell starts with ``#`` and header rows
    (first cell equal to ``header``) are skipped. A row with fewer than
    ``ncols`` cells raises ``ValueError`` naming ``what`` and the row.
    """
    with open_input(path, what, newline="") as fh:
        for row_no, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].startswith("#") or row[0] == header:
                continue
            if len(row) < ncols:
                raise ValueError(f"{what} row {row_no}: expected {ncols} "
                                 "columns")
            yield row_no, row


@contextmanager
def open_input(path, what: str, newline=None):
    """``open(path)`` on UTF-8 text, whose first byte that does not decode
    raises ValueError naming ``what``, the line and the file. A leading
    byte-order mark, which spreadsheet exports add, is skipped."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"{what} line {line}: byte "
                             f"0x{data[exc.start]:02x} is not UTF-8, in "
                             f"{path}") from None
        raise


def check_unique(first_rows: dict, key, row_no: int, what: str,
                 key_name: str) -> None:
    """Record that ``key`` is on row ``row_no`` of a ``what`` file.

    ``first_rows`` maps each key seen so far to its row. A key seen before
    raises ``ValueError`` naming ``what`` and both rows.
    """
    first = first_rows.setdefault(key, row_no)
    if first != row_no:
        raise ValueError(f"{what} row {row_no}: duplicate {key_name} "
                         f"{key!r} (first on row {first})")


def sha256_file(path) -> str:
    """Hex SHA-256 of a file's bytes; OpenSSL's from ``LARGE_FILE`` bytes
    up, the built-in one below."""
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size >= LARGE_FILE:
            import hashlib
            digest = hashlib.sha256()
        else:
            digest = sha256()
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
