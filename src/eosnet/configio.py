"""Plain-text key=value config files for the dataclass configs.

One ``name=value`` per line, ``#`` comments, values typed after the
field's default (ints, floats, strings, comma-separated tuples, enums by
value, and the literal ``none``).
"""

from __future__ import annotations

import dataclasses
from enum import Enum
from typing import Any


def config_to_text(cfg) -> str:
    lines = []
    for fld in dataclasses.fields(cfg):
        value = getattr(cfg, fld.name)
        if isinstance(value, Enum):
            rendered = value.value
        elif isinstance(value, tuple):
            rendered = ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
        elif value is None:
            rendered = "none"
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{fld.name}={rendered}")
    return "\n".join(lines) + "\n"


def load_key_value(path) -> dict[str, str]:
    mapping: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            mapping[key.strip()] = value.strip()
    return mapping


def _coerce_like(default: Any, raw: str) -> Any:
    if raw.lower() == "none":
        return None
    if isinstance(default, Enum):
        return type(default)(raw)
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, tuple):
        element = default[0] if default else 0.0
        caster = int if isinstance(element, int) else float
        return tuple(caster(part) for part in raw.split(",") if part != "")
    return raw


def build_config(cls, mapping: dict[str, str], **explicit):
    """Instantiate a config dataclass from defaults, then a key=value
    mapping, then explicit keyword overrides (highest precedence).

    Unknown keys raise ValueError.
    """
    defaults = cls()
    known = {fld.name for fld in dataclasses.fields(cls)}
    kwargs: dict[str, Any] = {}
    for key, raw in mapping.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r} for {cls.__name__}")
        kwargs[key] = _coerce_like(getattr(defaults, key), raw)
    for key, value in explicit.items():
        if value is None:
            continue
        if key not in known:
            raise ValueError(f"unknown config key {key!r} for {cls.__name__}")
        kwargs[key] = value
    return cls(**kwargs)
