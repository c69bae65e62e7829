"""Exception types shared across the package, the checks that raise them
for config dicts and stored JSON records, and the one JSON writer and one
CSV writer that every JSON and CSV file is written through."""

import json
from dataclasses import fields

import numpy as np


class GraspError(Exception):
    """Base class for package-specific errors."""


class DimensionError(GraspError, ValueError):
    """Operands or inputs have incompatible shapes."""


class ConfigError(GraspError, ValueError):
    """A configuration value violates a documented constraint."""


class IntegrityError(GraspError, RuntimeError):
    """Stored or derived data contradicts its own metadata or invariants."""


class DatasetIOError(GraspError, OSError):
    """A dataset file is missing, truncated, or malformed."""


class TrainingDiverged(GraspError, RuntimeError):
    """The training loss became non-finite."""

    def __init__(self, step, breakdown):
        super().__init__(f"non-finite loss at step {step}: {breakdown}")
        self.step = step
        self.breakdown = breakdown


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# per field annotation, as written (the config modules postpone annotations):
# the JSON values it takes, and how to say so
_FIELD_TYPES = {
    "bool": (lambda v: isinstance(v, bool), "a bool"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (_is_number, "a number"),
    "Optional[float]": (lambda v: v is None or _is_number(v), "null or a number"),
}


def config_from_dict(cls, d):
    """Build the config dataclass ``cls`` from a dict.

    Unknown keys are rejected, and so are values of the wrong JSON type:
    an integer field takes no float or bool, a bool field only a bool,
    and a float field no bool or string.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__} needs a JSON object, got {type(d).__name__}")
    annotations = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(d) - set(annotations))
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys {unknown}")
    for key, value in d.items():
        accepts, want = _FIELD_TYPES.get(annotations[key], (lambda v: True, None))
        if not accepts(value):
            raise ConfigError(f"{cls.__name__}.{key} must be {want}, got {value!r}")
    try:
        return cls(**d)
    except TypeError as exc:
        raise ConfigError(f"{cls.__name__}: ill-typed value ({exc})") from exc


def check_ranges(config, checks) -> None:
    """Raise ConfigError at the first ``(field, ok, want)`` of ``config`` whose ``ok`` is False."""
    for name, ok, want in checks:
        if not ok:
            raise ConfigError(f"{name} {getattr(config, name)!r} must be {want}")


def parse_json_object(raw: bytes, what: str, error: type) -> dict:
    """The JSON object that UTF-8 ``raw`` holds; ``error`` if it is malformed, nested
    past the parser's depth or no object."""
    try:
        value = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{what}: malformed JSON ({exc})") from exc
    if not isinstance(value, dict):
        raise error(f"{what} is not a JSON object")
    return value


def check_fields(record, fields: dict, what: str, error: type, others=()) -> None:
    """Raise ``error`` unless each named field of a JSON record has its type,
    and the record holds no key but those fields and the ``others``."""
    if not isinstance(record, dict):
        raise error(f"{what} is not a JSON object")
    unknown = sorted(set(record) - set(fields) - set(others))
    if unknown:
        raise error(f"{what} has unknown keys {unknown}")
    for key, kind in fields.items():
        value = record.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise error(f"{what} field {key!r} is missing or not {kind.__name__}")


def write_json(path, payload: dict) -> None:
    """Write ``payload`` to ``path`` indent-1, with sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def csv_cell(value) -> str:
    """One CSV cell: empty for None, a string as it is, a number as its shortest round-trip repr."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return repr(int(value))
    return repr(float(value))


def csv_row(cells) -> str:
    """One CSV line of ``cells``, newline included."""
    return ",".join(map(csv_cell, cells)) + "\n"


def write_csv(path, header, rows) -> None:
    """Write the ``header`` line and then each row to ``path``."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(csv_row(header))
        for row in rows:
            fh.write(csv_row(row))
