"""Plain-text forms of hazlab's artifacts: CSV tables keyed by a fixed header
line, and config dataclasses as JSON-ready dicts derived from their fields."""

from __future__ import annotations

import csv
import dataclasses
import enum
import io
import typing

from .errors import ContractError, FormatError


def write_rows(header, rows) -> str:
    """CSV text of a header line and one `\\n`-ended line per row; None is an
    empty field."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def read_rows(text: str, header) -> list[dict[str, str]]:
    """Rows of CSV text as dicts keyed by `header`; blank lines are skipped.
    Raises FormatError on another header or a row with another field count."""
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    try:
        if reader.fieldnames != list(header):
            raise FormatError(f"CSV header {reader.fieldnames} != expected {list(header)}")
        for row in reader:
            if None in row or None in row.values():
                raise FormatError(f"CSV line {reader.line_num}: expected {len(header)} fields")
            rows.append(row)
    except csv.Error as e:
        raise FormatError(f"CSV line {reader.line_num}: {e}") from e
    return rows


def config_to_dict(config) -> dict:
    """A config dataclass as a JSON-ready dict: nested configs as dicts,
    tuples as lists, enums by value."""
    return dataclasses.asdict(config, dict_factory=lambda items: {k: _plain(v) for k, v in items})


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value.value if isinstance(value, enum.Enum) else value


def config_from_dict(cls, d):
    """Inverse of `config_to_dict`; omitted keys take the defaults. Raises
    ContractError on a key `cls` does not define or a value of the wrong type,
    so that a misspelt key cannot silently fall back to its default."""
    if not isinstance(d, dict):
        raise ContractError(f"{cls.__name__}: expected an object, got {d!r}")
    unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ContractError(f"{cls.__name__}: unknown key(s) {', '.join(unknown)}")
    hints = typing.get_type_hints(cls)
    return cls(**{k: _typed(hints[k], v, f"{cls.__name__}.{k}") for k, v in d.items()})


def _typed(hint, value, where: str):
    if dataclasses.is_dataclass(hint):
        return config_from_dict(hint, value)
    if typing.get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)):
            return tuple(_typed(typing.get_args(hint)[0], v, where) for v in value)
    elif issubclass(hint, enum.Enum):
        if value in [m.value for m in hint]:
            return hint(value)
    elif isinstance(value, hint) or (hint is float and isinstance(value, int)):
        return value
    raise ContractError(f"{where}: {value!r} is not a valid "
                        f"{(typing.get_origin(hint) or hint).__name__}")
