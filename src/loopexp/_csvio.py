"""The package's CSV format: ``# key=value`` metadata lines, a header row,
then data rows.  Every CSV file the package writes or reads goes through
this module.  Floats are written as ``repr``, so ``float`` reads back the
same bits."""

from __future__ import annotations

import csv
import json
from pathlib import Path


def write_csv(path, meta: dict, header: list[str], rows) -> None:
    """Write ``meta`` (dict and list values as sorted JSON, None as an
    empty value, as ``csv.writer`` writes it in rows), ``header`` and
    ``rows``, creating the parent directory of ``path`` if it is missing."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for key, val in meta.items():
            if isinstance(val, (dict, list)):
                val = json.dumps(val, sort_keys=True)
            elif val is None:
                val = ""
            fh.write(f"# {key}={val}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v
                          for v in row] for row in rows)


def read_csv(path, header: list[str]) -> tuple[dict, list[list[str]]]:
    """``(meta, rows)`` of a file, metadata values as text.  Blank lines are
    skipped and every ``#`` line, before or after the header, is metadata.
    Raises ValueError, naming ``path``, unless the first row is ``header``
    and every later row has one field per column."""
    meta, lines = {}, []
    with open(path) as fh:
        for line in map(str.strip, fh):
            if line.startswith("#"):
                key, _, val = line.lstrip("# ").partition("=")
                meta[key.strip()] = val
            elif line:
                lines.append(line)
    rows = list(csv.reader(lines))
    if not rows or rows[0] != header:
        raise ValueError(f"{path}: unexpected header "
                         f"{rows[0] if rows else None}, expected header "
                         f"{','.join(header)}")
    for row in rows[1:]:
        if len(row) != len(header):
            raise ValueError(f"{path}: row {','.join(row)!r} has {len(row)} "
                             f"fields, expected {len(header)} "
                             f"({','.join(header)})")
    return meta, rows[1:]


def parse(path, name: str, text: str, kind, row=None, ok=None,
          expected: str = ""):
    """``kind(text)`` (``int`` or ``float``) for the field ``name`` of the
    data row ``row`` or, when ``row`` is None, the metadata value ``name``.
    ValueError, naming ``path``, the row and the field, when ``text`` does
    not convert or ``ok`` refuses the value; the message says the field is
    not ``expected`` (by default an integer or a number, after ``kind``)."""
    try:
        value = kind(text)
    except ValueError:
        pass
    else:
        if ok is None or ok(value):
            return value
    where = "" if row is None else f"row {','.join(row)!r}: "
    expected = expected or ("an integer" if kind is int else "a number")
    raise ValueError(f"{path}: {where}{name}={text!r} is not {expected}")
