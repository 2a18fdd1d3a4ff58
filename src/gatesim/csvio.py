"""CSV writer and strict reader, and the value parser shared with INI configs."""

from __future__ import annotations

import csv

_BOOLS = {"1": True, "true": True, "0": False, "false": False}


def parse_as(kind, raw: str, what: str):
    """Parse ``raw`` as a field annotated ``kind`` (float | None parses as
    float, bool as 1/0/true/false in any case); a value that does not parse
    raises ValueError naming ``what``."""
    kind = float if kind == float | None else kind
    try:
        return _BOOLS[raw.strip().lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ValueError(f"{what} = {raw!r} is not a valid {kind.__name__}") from None


def write_csv(path, columns: dict[str, str], rows) -> None:
    """Write ``rows`` (value sequences in column order) under a header of the
    ``columns`` names; each value is formatted with its column's spec."""
    specs = list(columns.values())
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(format(v, s) for v, s in zip(row, specs, strict=True)) + "\n")


def read_csv(path, types: dict, optional=(), build=dict) -> list:
    """Rows of a CSV file, each a dict of values parsed by their column's
    type and passed to ``build``.

    The columns must be distinct keys of ``types``, including all keys not
    in ``optional``; otherwise, or for a row of the wrong length, a value
    that does not parse or a ValueError from ``build``, raises ValueError
    naming it.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for name in header:
            if name not in types:
                raise ValueError(f"unknown column {name!r} in {path}")
            if header.count(name) > 1:
                raise ValueError(f"duplicate column {name!r} in {path}")
        for name in types:
            if name not in optional and name not in header:
                raise ValueError(f"missing column {name!r} in {path}")
        rows = []
        for row in reader:
            if None in row or None in row.values():
                raise ValueError(f"line {reader.line_num} of {path} needs {len(header)} values")
            where = f"line {reader.line_num}: "
            values = {key: parse_as(types[key], raw, where + key) for key, raw in row.items()}
            try:
                rows.append(build(values))
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num} of {path}: {exc}") from None
    return rows
